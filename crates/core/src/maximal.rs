//! MaxEclat — maximal frequent itemset mining with look-ahead, the
//! hybrid search of the paper's reference \[18\].
//!
//! Instead of materializing every frequent itemset, MaxEclat hunts the
//! *maximal* ones (those with no frequent superset). Within an
//! equivalence class it first tries the **look-ahead** jump: join the
//! current node with *all* remaining extensions at once; if that long
//! itemset is frequent, the entire sub-lattice below it is frequent and
//! is skipped in one step. Only on failure does it fall back to the
//! one-extension-at-a-time recursion.
//!
//! Each class runs on bitmaps or diffsets, chosen by its density as in
//! the full miner. The look-ahead is built on the [`TidSet`] multi-way
//! fold (`fold_join_bounded_metered`), which tracks the representation
//! per join depth — on a diffset class the tid-list → diffset conversion
//! and diffset differences mix inside one fold (see
//! `tidlist::AdaptiveSet::fold_with`).
//!
//! Output: the maximal frequent itemsets of size ≥ 2 with their exact
//! supports. Cross-checked against `FrequentSet::maximal()` of the full
//! miner.

use crate::compute::{join_level, EclatConfig, JoinHandler};
use crate::equivalence::{ClassMember, EquivalenceClass};
use crate::pipeline::{self, ClassKernel, Threads};
use dbstore::HorizontalDb;
use mining_types::stats::{KernelStats, MiningStats};
use mining_types::{FrequentSet, Itemset, MinSupport, OpMeter};
use tidlist::TidSet;

/// The MaxEclat per-class step of the three-phase driver: each class
/// contributes its locally maximal itemsets, and the global
/// [`reduce`](ClassKernel::reduce) keeps those no other class subsumes.
/// The report's kernel work includes look-ahead candidates,
/// short-circuit hits and `AdaptiveSet` switch events.
pub struct MaxEclat;

impl ClassKernel for MaxEclat {
    fn algorithm(&self) -> &'static str {
        "maxeclat"
    }

    /// One class of the max search on bitmaps or diffsets, chosen by
    /// [`pipeline::class_is_dense`] as in `pipeline::compute_class_stats`.
    fn mine_class(
        &self,
        class: EquivalenceClass,
        threshold: u32,
        cfg: &EclatConfig,
        meter: &mut OpMeter,
        out: &mut FrequentSet,
        stats: &mut KernelStats,
    ) {
        if class.size() == 1 {
            // a lone 2-itemset is maximal within its class
            let m = &class.members[0];
            out.insert(m.itemset.clone(), m.tids.support());
        } else if pipeline::class_is_dense(&class) {
            let class = pipeline::bitmap_class(class);
            max_search(class, threshold, cfg, meter, out, stats)
        } else {
            let class = pipeline::diffset_class(class);
            max_search(class, threshold, cfg, meter, out, stats)
        }
    }

    /// A class's local maximal can be subsumed by another class's result
    /// only if it is a subset — prefix classes make that impossible for
    /// same-first-item sets, but e.g. {B,C} ∈ \[B\] is subsumed by
    /// {A,B,C} ∈ \[A\], so the global pass is required.
    fn reduce(&self) -> Option<fn(&FrequentSet) -> FrequentSet> {
        Some(unsubsumed)
    }
}

/// The candidates no other candidate strictly contains.
fn unsubsumed(candidates: &FrequentSet) -> FrequentSet {
    let all: Vec<(&Itemset, u32)> = candidates.iter().collect();
    all.iter()
        .filter(|&&(is, _)| {
            !all.iter()
                .any(|&(other, _)| other.len() > is.len() && is.is_subset_of(other))
        })
        .map(|&(is, sup)| (is.clone(), sup))
        .collect()
}

/// The maximal frequent itemsets (size ≥ 2) with their report
/// (algorithm `"maxeclat"`): the three-phase
/// [`pipeline::run_stats_on`] driver on the [`MaxEclat`] kernel. Under
/// [`EclatConfig::include_singletons`] the frequent items that join no
/// frequent pair are maximal too and are kept.
pub fn mine(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
    variant: &str,
) -> (FrequentSet, MiningStats) {
    pipeline::run_stats_on(db, minsup, cfg, meter, threads, variant, &mut MaxEclat)
}

/// Recursive hybrid search over one class, generic over the members'
/// representation. Pushes locally-maximal frequent itemsets into `found`.
fn max_search<S: TidSet>(
    class: EquivalenceClass<S>,
    minsup: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    found: &mut FrequentSet,
    stats: &mut KernelStats,
) {
    let members = class.members;
    debug_assert!(members.len() >= 2);
    let parent_switched = members[0].tids.is_switched();

    // --- Look-ahead: fold the whole class at once. The fold is the
    // representation-aware multi-way join: the §5.3 short-circuit applies
    // per fold step when enabled.
    let union_size = (members[0].itemset.len() + members.len() - 1) as u64;
    stats.record_candidate(union_size);
    let rest: Vec<&S> = members[1..].iter().map(|m| &m.tids).collect();
    let all = if cfg.short_circuit {
        members[0]
            .tids
            .fold_join_bounded_metered(&rest, minsup, meter)
    } else {
        let full = members[0].tids.fold_join_metered(&rest, meter);
        (full.support() >= minsup).then_some(full)
    };
    if let Some(all) = all {
        // The whole class joins into one frequent itemset — maximal for
        // this subtree; everything below is subsumed.
        stats.record_frequent(union_size);
        if !parent_switched && all.is_switched() {
            stats.record_switch();
        }
        let mut union = members[0].itemset.clone();
        for m in &members[1..] {
            union = union.union(&m.itemset);
        }
        found.insert(union, all.support());
        return;
    }
    stats.record_infrequent(cfg.short_circuit);

    // --- Fall back: one level of pairwise joins (through the shared
    // kernel loop), then recurse per class.
    let mut handler = ExtendTracker {
        next: Vec::new(),
        extended: vec![false; members.len()],
        stats,
        parent_switched,
        short_circuit: cfg.short_circuit,
    };
    join_level(&members, minsup, cfg, meter, &mut handler);
    let ExtendTracker { next, extended, .. } = handler;
    // Members that extended nowhere are locally maximal.
    for (i, m) in members.iter().enumerate() {
        if !extended[i] {
            found.insert(m.itemset.clone(), m.tids.support());
        }
    }
    drop(members);
    for sub in crate::equivalence::repartition(next) {
        if sub.size() == 1 {
            let m = &sub.members[0];
            found.insert(m.itemset.clone(), m.tids.support());
        } else {
            max_search(sub, minsup, cfg, meter, found, stats);
        }
    }
}

/// `join_level` handler for the fallback level: collect frequent joins,
/// remember which members extended at all (the rest are locally maximal),
/// and feed the kernel stats — candidates, outcomes, and `AdaptiveSet`
/// switch events, the same accounting the full miner does.
struct ExtendTracker<'a, S> {
    next: Vec<ClassMember<S>>,
    extended: Vec<bool>,
    stats: &'a mut KernelStats,
    parent_switched: bool,
    short_circuit: bool,
}

impl<S: TidSet> JoinHandler<S> for ExtendTracker<'_, S> {
    fn accept(&mut self, candidate: &Itemset, _meter: &mut OpMeter) -> bool {
        self.stats.record_candidate(candidate.len() as u64);
        true
    }

    fn on_result(&mut self, i: usize, j: usize, candidate: Itemset, joined: Option<S>) {
        match joined {
            Some(tids) => {
                self.stats.record_frequent(candidate.len() as u64);
                if !self.parent_switched && tids.is_switched() {
                    self.stats.record_switch();
                }
                self.extended[i] = true;
                self.extended[j] = true;
                self.next.push(ClassMember {
                    itemset: candidate,
                    tids,
                });
            }
            None => self.stats.record_infrequent(self.short_circuit),
        }
    }
}

/// Maximal elements of a full frequent set (test oracle; also generally
/// useful to consumers who mined everything and want the frontier).
pub fn maximal_of(fs: &FrequentSet) -> FrequentSet {
    let all: Vec<(&Itemset, u32)> = fs.iter().collect();
    let mut out = FrequentSet::new();
    for &(is, sup) in &all {
        if is.len() < 2 {
            continue;
        }
        let subsumed = all
            .iter()
            .any(|&(other, _)| other.len() > is.len() && is.is_subset_of(other));
        if !subsumed {
            out.insert(is.clone(), sup);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Serial;
    use crate::transform::count_pairs;
    use apriori::reference::random_db;
    use mining_types::ItemId;

    fn maximal(db: &HorizontalDb, minsup: MinSupport, cfg: &EclatConfig) -> FrequentSet {
        mine(db, minsup, cfg, &mut OpMeter::new(), &Serial, "sequential").0
    }

    fn full(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
        let cfg = EclatConfig::default();
        pipeline::run(db, minsup, &cfg, &mut OpMeter::new(), &Serial)
    }

    /// T10.I6 sample whose classes at 0.5% are all below the density
    /// threshold, so the search runs on diffsets.
    fn sparse_db() -> HorizontalDb {
        HorizontalDb::from_transactions(
            questgen::QuestGenerator::new(questgen::QuestParams::t10_i6(3_000).with_seed(5))
                .generate_all(),
        )
    }

    #[test]
    fn matches_maximal_of_full_mining() {
        for seed in [1u64, 8, 30] {
            let db = random_db(seed, 200, 12, 6);
            for pct in [5.0, 10.0, 20.0] {
                let minsup = MinSupport::from_percent(pct);
                let max_direct = maximal(&db, minsup, &EclatConfig::default());
                let max_oracle = maximal_of(&full(&db, minsup));
                assert_eq!(max_direct, max_oracle, "seed {seed} pct {pct}");
            }
        }
    }

    /// Locally maximal sets of one class searched on representation `S`.
    fn class_maxima<S: TidSet>(class: EquivalenceClass<S>, threshold: u32) -> FrequentSet {
        let mut found = FrequentSet::new();
        let cfg = EclatConfig::default();
        max_search(
            class,
            threshold,
            &cfg,
            &mut OpMeter::new(),
            &mut found,
            &mut KernelStats::new(),
        );
        found
    }

    #[test]
    fn matches_the_oracle_on_both_sides_of_the_density_choice() {
        let inputs = [
            ("sparse", sparse_db(), 0.5),
            ("dense", random_db(1, 200, 12, 6), 5.0),
            ("dense", random_db(8, 200, 12, 6), 15.0),
            ("dense", dense_db(), 50.0),
        ];
        for (side, db, pct) in inputs {
            let minsup = MinSupport::from_percent(pct);
            let oracle = maximal_of(&full(&db, minsup));
            assert!(oracle.max_size() >= 3, "{side} {pct}%");
            for short_circuit in [true, false] {
                let cfg = EclatConfig {
                    short_circuit,
                    ..Default::default()
                };
                let got = maximal(&db, minsup, &cfg);
                assert_eq!(got, oracle, "{side} {pct}% sc {short_circuit}");
            }
            // Class by class, both kernels find the tid-list search's maxima.
            let threshold = minsup.count_threshold(db.num_transactions());
            let tri = count_pairs(&db, 0..db.num_transactions(), &mut OpMeter::new());
            let l2 = pipeline::frequent_l2(&tri, threshold);
            for class in pipeline::vertical_classes(&db, &l2, &mut OpMeter::new()) {
                assert_eq!(pipeline::class_is_dense(&class), side == "dense");
                if class.size() < 2 {
                    continue;
                }
                let paper = class_maxima(class.clone(), threshold);
                let bitmaps = class_maxima(pipeline::bitmap_class(class.clone()), threshold);
                assert_eq!(bitmaps, paper, "{side} {pct}% {:?}", class.prefix);
                assert_eq!(
                    class_maxima(pipeline::diffset_class(class), threshold),
                    paper
                );
            }
        }
    }

    /// Dense look-ahead-heavy database: all transactions share one long
    /// core pattern, so the look-ahead jumps straight to the top.
    fn dense_db() -> HorizontalDb {
        let txns: Vec<Vec<ItemId>> = (0..200)
            .map(|i| {
                let mut t: Vec<ItemId> = (0..8u32).map(ItemId).collect();
                t.push(ItemId(8 + (i % 7) as u32));
                t
            })
            .collect();
        HorizontalDb::from_transactions(txns)
    }

    #[test]
    fn lookahead_pays_on_dense_data() {
        let db = dense_db();
        let minsup = MinSupport::from_percent(50.0);
        let mut m_max = OpMeter::new();
        let (max, _) = mine(
            &db,
            minsup,
            &EclatConfig::default(),
            &mut m_max,
            &Serial,
            "x",
        );
        // the 8-item core is the unique maximal set
        assert_eq!(max.len(), 1);
        let (top, sup) = max.iter().next().unwrap();
        assert_eq!(top, &Itemset::of(&[0, 1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(sup, 200);
        let mut m_full = OpMeter::new();
        pipeline::run(&db, minsup, &EclatConfig::default(), &mut m_full, &Serial);
        assert!(
            m_max.tid_cmp * 5 < m_full.tid_cmp,
            "lookahead {} vs full {}",
            m_max.tid_cmp,
            m_full.tid_cmp
        );
    }

    #[test]
    fn maximal_stats_report_switch_events_on_diffsets() {
        // Sparse classes mine on diffsets: every frequent join below L2
        // is a tid-list → diffset switch.
        let db = sparse_db();
        let minsup = MinSupport::from_percent(0.5);
        let cfg = EclatConfig::default();
        let (fs, stats) = mine(
            &db,
            minsup,
            &cfg,
            &mut OpMeter::new(),
            &Serial,
            "sequential",
        );
        assert!(!fs.is_empty());
        assert_eq!(stats.algorithm, "maxeclat");
        assert_eq!(stats.representation, pipeline::LABEL_AUTO);
        let totals = stats.kernel_totals();
        assert!(
            totals.switch_events > 0,
            "diffset look-ahead must record the tidlist → diffset switch"
        );
        assert!(totals.joins > 0);
        // The four live phases in order.
        let labels: Vec<&str> = stats.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                pipeline::PHASE_INIT,
                pipeline::PHASE_TRANSFORM,
                pipeline::PHASE_ASYNC,
                pipeline::PHASE_REDUCE
            ]
        );
        // The JSON surface carries the algorithm and switch events.
        let json = stats.to_json(false);
        assert!(json.contains("\"algorithm\":\"maxeclat\""), "{json}");
        assert!(json.contains("\"switch_events\""), "{json}");
    }

    #[test]
    fn no_member_of_output_subsumes_another() {
        let db = random_db(12, 300, 14, 6);
        let minsup = MinSupport::from_percent(5.0);
        let max = maximal(&db, minsup, &EclatConfig::default());
        let v: Vec<_> = max.iter().collect();
        for (i, (a, _)) in v.iter().enumerate() {
            for (j, (b, _)) in v.iter().enumerate() {
                if i != j {
                    assert!(!a.is_subset_of(b), "{a} ⊆ {b}");
                }
            }
        }
    }

    #[test]
    fn singletons_that_join_no_frequent_pair_are_maximal() {
        // Threshold 2: {0,1} is the only frequent pair and 2 is frequent
        // alone, so it is maximal whether or not a pair exists.
        let db = HorizontalDb::of(&[&[0, 1], &[0, 1], &[2], &[2]]);
        let minsup = MinSupport::from_fraction(0.5);
        let cfg = EclatConfig::with_singletons();
        let expect: FrequentSet = [(Itemset::of(&[0, 1]), 2), (Itemset::single(ItemId(2)), 2)]
            .into_iter()
            .collect();
        assert_eq!(maximal(&db, minsup, &cfg), expect);
        let no_pairs = HorizontalDb::of(&[&[0], &[0], &[1]]);
        let expect: FrequentSet = [(Itemset::single(ItemId(0)), 2)].into_iter().collect();
        assert_eq!(maximal(&no_pairs, minsup, &cfg), expect);
    }

    #[test]
    fn empty_database() {
        let db = HorizontalDb::of(&[]);
        assert!(maximal(&db, MinSupport::from_percent(1.0), &EclatConfig::default()).is_empty());
    }
}
