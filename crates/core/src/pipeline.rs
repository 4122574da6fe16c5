//! The shared three-phase Eclat pipeline.
//!
//! Every variant in this crate runs the same §7 structure — *"The first
//! scan for building L2, the second for transforming the database, and
//! the third for obtaining the frequent itemsets"* — and historically
//! each driver carried its own copy of the glue. This module owns the
//! three phases once:
//!
//! 1. **Initialization** ([`count_pairs_blocked`] → [`frequent_l2`], plus
//!    [`insert_frequent_singletons`]) — triangular pair counting on the
//!    horizontal layout (§5.1);
//! 2. **Transformation** ([`vertical_classes`]) — build the `L2`
//!    tid-lists and group them into prefix equivalence classes (§5.2.2,
//!    §4.1);
//! 3. **Asynchronous phase** ([`mine_classes`] → [`mine_class`]) —
//!    per-class recursive mining (§5.3), each class on bitmaps or on
//!    diffsets as its density decides ([`compute_class_stats`]).
//!
//! [`run`] composes the phases on a [`Threads`] pool: [`Serial`]
//! reproduces the sequential algorithm, `Threads::new(0)` the
//! shared-memory one on every core. The cluster and hybrid variants
//! interleave the phases with the simulated communication/cost model, so
//! they call the phase helpers directly instead of [`run`], and mine
//! their classes on the paper's plain tid-lists so the cost model prices
//! the comparisons it was calibrated on.

use crate::compute::{compute_frequent_stats, EclatConfig};
use crate::equivalence::{classes_of_l2, ClassMember, EquivalenceClass};
pub use crate::executor::{Serial, Threads};
use crate::schedule::class_weights;
use crate::transform::{build_pair_tidlists, count_items, count_pairs, index_pairs};
use dbstore::HorizontalDb;
use mining_types::stats::{ClassStats, KernelStats, MiningStats, PhaseStats};
use mining_types::{FrequentSet, ItemId, Itemset, MinSupport, OpMeter, TriangleMatrix};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;
use tidlist::{AdaptiveSet, BitmapSet, TidList};

/// Trace/stats label of the initialization phase (§5.1 counting).
pub const PHASE_INIT: &str = "init";
/// Trace/stats label of the vertical-transformation phase (§5.2.2).
pub const PHASE_TRANSFORM: &str = "transform";
/// Trace/stats label of the asynchronous per-class mining phase (§5.3).
pub const PHASE_ASYNC: &str = "async";
/// Trace/stats label of the final result reduction (cluster variants).
pub const PHASE_REDUCE: &str = "reduce";

/// Split `range` into one contiguous block per thread, or keep it whole
/// when it is too short to be worth splitting.
fn tid_blocks(range: Range<usize>, threads: &Threads) -> Vec<Range<usize>> {
    let n = range.len();
    let p = threads.get();
    if p == 1 || n < 2 * p {
        return vec![range];
    }
    let chunk = n.div_ceil(p);
    (range.start..range.end)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(range.end))
        .collect()
}

/// Phase 1 on a [`Threads`] pool: count one contiguous transaction block
/// per thread and sum-merge the partial triangles (the same reduction
/// the cluster variants perform across processors). Per-block meters
/// merge into `meter`, so counts equal the serial pass.
pub fn count_pairs_blocked(
    db: &HorizontalDb,
    threads: &Threads,
    meter: &mut OpMeter,
) -> TriangleMatrix {
    let blocks = tid_blocks(0..db.num_transactions(), threads);
    let weights: Vec<u64> = blocks.iter().map(|r| r.len() as u64).collect();
    let partials = threads.map(blocks, &weights, |_, _, r| {
        let mut m = OpMeter::new();
        (count_pairs(db, r, &mut m), m)
    });
    let mut iter = partials.into_iter();
    let (mut tri, m) = iter.next().expect("at least one block");
    meter.merge(&m);
    for (t, m) in iter {
        tri.merge_from(&t);
        meter.merge(&m);
    }
    tri
}

/// Phase 2's tid-list construction on a [`Threads`] pool: each thread
/// scans a contiguous sub-range of `range` (ascending tids), then the
/// per-slot partial lists are stitched in sub-range order — the
/// intra-host variant of the §6.3 offset placement, so every list comes
/// out identical to a serial scan. Meters merge to the serial counts.
pub fn build_pair_tidlists_blocked(
    db: &HorizontalDb,
    range: Range<usize>,
    idx: &mining_types::FxHashMap<(ItemId, ItemId), usize>,
    threads: &Threads,
    meter: &mut OpMeter,
) -> Vec<tidlist::TidList> {
    let blocks = tid_blocks(range, threads);
    let weights: Vec<u64> = blocks.iter().map(|r| r.len() as u64).collect();
    let partials = threads.map(blocks, &weights, |_, _, r| {
        let mut m = OpMeter::new();
        (build_pair_tidlists(db, r, idx, &mut m), m)
    });
    let mut iter = partials.into_iter();
    let (mut lists, m) = iter.next().expect("at least one block");
    meter.merge(&m);
    for (part, m) in iter {
        meter.merge(&m);
        for (slot, p) in part.into_iter().enumerate() {
            lists[slot].append_partial(&p);
        }
    }
    lists
}

/// Extract the frequent pair list from phase 1's triangular counts.
pub fn frequent_l2(tri: &TriangleMatrix, threshold: u32) -> Vec<(ItemId, ItemId)> {
    tri.frequent_pairs(threshold)
        .map(|(a, b, _)| (a, b))
        .collect()
}

/// Piggybacked singleton pass (only when `cfg.include_singletons`): count
/// 1-itemsets over the horizontal layout and record the frequent ones.
/// Returns `(items_counted, items_frequent)` — the level-1 candidate and
/// frequent counts for the stats report.
pub fn insert_frequent_singletons(
    db: &HorizontalDb,
    threshold: u32,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) -> (u64, u64) {
    let counts = count_items(db, 0..db.num_transactions(), meter);
    let mut inserted = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c >= threshold {
            out.insert(Itemset::single(ItemId(i as u32)), c);
            inserted += 1;
        }
    }
    (counts.len() as u64, inserted)
}

/// Phase 2: vertical transformation — one ordered scan building the `L2`
/// tid-lists, grouped into prefix equivalence classes.
pub fn vertical_classes(
    db: &HorizontalDb,
    l2: &[(ItemId, ItemId)],
    meter: &mut OpMeter,
) -> Vec<EquivalenceClass> {
    let idx = index_pairs(l2);
    let lists = build_pair_tidlists(db, 0..db.num_transactions(), &idx, meter);
    classes_of_l2(
        l2.iter()
            .zip(lists)
            .map(|(&(a, b), tl)| (a, b, tl))
            .collect(),
    )
}

/// Density, in thousandths, at which a class mines on bitmaps instead of
/// diffsets (see [`class_is_dense`]). Chosen by wall clock, not by the
/// op-count crossover near 8‰: per-class timings on Quest data put
/// diffsets ahead up to 19‰ and bitmaps ahead from 20‰ on the dense
/// preset (EXPERIMENTS.md, "Per-class kernel choice").
const DENSE_PERMILLE: u64 = 20;

/// `MiningStats.representation` of a run whose classes take the
/// per-class density choice of [`compute_class_stats`].
pub const LABEL_AUTO: &str = "auto";
/// `MiningStats.representation` of the simulated variants, which mine
/// the paper's plain tid-lists so their op counts price §4.2's merges.
pub const LABEL_TIDLIST: &str = "tidlist";

/// A per-class kernel: mine below a tid-list `L2` class, recording what
/// it finds and its work counters.
pub(crate) type ClassKernel =
    fn(EquivalenceClass, u32, &EclatConfig, &mut OpMeter, &mut FrequentSet, &mut KernelStats);

/// Phase 3 for one class: record its members (they are frequent by
/// construction), then mine below them with [`compute_class_stats`].
/// Returns the per-class work statistics.
pub fn mine_class(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) -> ClassStats {
    mine_class_with(class, threshold, cfg, meter, out, compute_class_stats)
}

fn mine_class_with(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
    kernel: ClassKernel,
) -> ClassStats {
    for m in &class.members {
        out.insert(m.itemset.clone(), m.tids.support());
    }
    let mut stats = ClassStats {
        prefix: class.prefix.items().iter().map(|i| i.0).collect(),
        members: class.members.len() as u64,
        kernel: KernelStats::new(),
    };
    kernel(class, threshold, cfg, meter, out, &mut stats.kernel);
    stats
}

/// Phase 3 for a batch of classes on a [`Threads`] pool, heaviest
/// class first (weights from [`EclatConfig::heuristic`]). Each executor
/// thread mines into its own result set and meter; both merge at the
/// end, so the meter equals a serial run's. Returns the results plus one
/// [`ClassStats`] per class, in class order.
pub fn mine_classes(
    classes: Vec<EquivalenceClass>,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
) -> (FrequentSet, Vec<ClassStats>) {
    mine_classes_with(classes, threshold, cfg, meter, threads, compute_class_stats)
}

/// [`mine_classes`] on a given per-class kernel. The simulated variants
/// and [`run_tidlist_stats`] pass the paper's tid-list kernel,
/// `compute_frequent_stats::<TidList>`.
pub(crate) fn mine_classes_with(
    classes: Vec<EquivalenceClass>,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
    kernel: ClassKernel,
) -> (FrequentSet, Vec<ClassStats>) {
    let weights = class_weights(&classes, cfg.heuristic);
    let locals: Vec<Mutex<(FrequentSet, OpMeter)>> =
        (0..threads.get()).map(|_| Mutex::default()).collect();
    let stats = threads.map(classes, &weights, |t, i, class| {
        let _span = eclat_obs::trace::span_arg("class", i as u64);
        let mut local = locals[t].lock().expect("per-thread results poisoned");
        let (out, m) = &mut *local;
        mine_class_with(class, threshold, cfg, m, out, kernel)
    });
    let mut out = FrequentSet::new();
    for local in locals {
        let (found, m) = local.into_inner().expect("per-thread results poisoned");
        out.merge(found);
        meter.merge(&m);
    }
    (out, stats)
}

/// Run the recursive kernel below a tid-list `L2` class, filling the
/// kernel work counters. The class members themselves must already be
/// recorded by the caller ([`mine_class`] does both).
///
/// A dense class ([`class_is_dense`]) mines on fixed-width bitmaps,
/// where a join is a word `AND` + popcount. Any other class mines on
/// d-Eclat diffsets: the first join below `L2` converts to
/// `d(xy·z) = t(xy) − t(xz)` and the subtree continues on diffsets.
pub fn compute_class_stats(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
    stats: &mut KernelStats,
) {
    if class_is_dense(&class) {
        compute_frequent_stats(bitmap_class(class), threshold, cfg, meter, out, stats)
    } else {
        compute_frequent_stats(diffset_class(class), threshold, cfg, meter, out, stats)
    }
}

/// Wrap a tid-list class for d-Eclat: `AdaptiveSet` with zero fuel
/// converts to diffsets at the first join below `L2`.
pub(crate) fn diffset_class(class: EquivalenceClass) -> EquivalenceClass<AdaptiveSet> {
    EquivalenceClass {
        prefix: class.prefix,
        members: class
            .members
            .into_iter()
            .map(|m| ClassMember {
                itemset: m.itemset,
                tids: AdaptiveSet::with_fuel(m.tids, 0),
            })
            .collect(),
    }
}

/// Convert a tid-list class to fixed-width bitmaps sharing one
/// word-aligned frame (`BitmapSet::frame_of` over the members), so every
/// join below `L2` is an aligned word `AND` + popcount.
pub(crate) fn bitmap_class(class: EquivalenceClass) -> EquivalenceClass<BitmapSet> {
    let (base, words) = BitmapSet::frame_of(class.members.iter().map(|m| &m.tids));
    EquivalenceClass {
        prefix: class.prefix,
        members: class
            .members
            .into_iter()
            .map(|m| ClassMember {
                tids: BitmapSet::from_tidlist(&m.tids, base, words),
                itemset: m.itemset,
            })
            .collect(),
    }
}

/// The per-class kernel choice: a class is dense when its average member
/// density over the class's word-aligned tid window reaches
/// `DENSE_PERMILLE / 1000`, i.e.
/// `Σ support · 1000 ≥ DENSE_PERMILLE · members · span`. Integer
/// arithmetic throughout so the choice is exactly reproducible across
/// hosts; an empty window (all members empty) counts as dense — the
/// zero-width bitmap is free.
pub fn class_is_dense(class: &EquivalenceClass) -> bool {
    let (_, words) = BitmapSet::frame_of(class.members.iter().map(|m| &m.tids));
    let span = words as u64 * 64;
    let sum: u64 = class
        .members
        .iter()
        .map(|m| u64::from(m.tids.support()))
        .sum();
    sum * 1000 >= DENSE_PERMILLE * class.members.len() as u64 * span
}

/// The full three-phase pipeline on a [`Threads`] pool. This is the
/// whole sequential/parallel algorithm; the cluster variants compose the
/// phase helpers themselves around the communication model.
pub fn run(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
) -> FrequentSet {
    let threshold = minsup.count_threshold(db.num_transactions());
    let mut out = FrequentSet::new();

    // --- Phase 1 (initialization, §5.1): triangular counts of all pairs.
    let tri = count_pairs_blocked(db, threads, meter);
    let l2 = frequent_l2(&tri, threshold);

    if cfg.include_singletons {
        insert_frequent_singletons(db, threshold, meter, &mut out);
    }
    if l2.is_empty() {
        return out;
    }

    // --- Phase 2 (transformation, §5.2.2): vertical tid-lists for L2.
    let classes = vertical_classes(db, &l2, meter);

    // --- Phase 3 (asynchronous, §5.3): per-class recursive mining.
    let (mut found, _) = mine_classes(classes, threshold, cfg, meter, threads);
    found.merge(out);
    found
}

/// [`run`] that also produces the structured [`MiningStats`] report:
/// per-phase wall-clock/op deltas, per-level candidate/frequent counts,
/// and per-class kernel work. `variant` labels the report
/// (`"sequential"` / `"parallel"`); live runs have no simulated cluster,
/// so `stats.cluster` is `None`.
pub fn run_stats(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
    variant: &str,
) -> (FrequentSet, MiningStats) {
    let kernel: ClassKernel = compute_class_stats;
    run_stats_on(
        db,
        minsup,
        cfg,
        meter,
        threads,
        variant,
        (kernel, LABEL_AUTO),
    )
}

/// The paper's kernel on one thread: [`run_stats`] with every class
/// mined on plain tid-lists (the §4.2 layout whose comparisons the
/// simulated variants price), labelled [`LABEL_TIDLIST`]. It is the
/// reference the per-class density choice is checked against and the
/// `tidlist` row of the ablations, not a second way to mine.
pub fn run_tidlist_stats(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
) -> (FrequentSet, MiningStats) {
    let kernel: ClassKernel = compute_frequent_stats::<TidList>;
    run_stats_on(
        db,
        minsup,
        cfg,
        meter,
        &Serial,
        "sequential",
        (kernel, LABEL_TIDLIST),
    )
}

fn run_stats_on(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
    variant: &str,
    (kernel, label): (ClassKernel, &str),
) -> (FrequentSet, MiningStats) {
    let threshold = minsup.count_threshold(db.num_transactions());
    let mut stats = MiningStats::new("eclat", variant, label);
    stats.transactions = db.num_transactions() as u64;
    stats.threshold = u64::from(threshold);
    let mut out = FrequentSet::new();
    let start_ops = *meter;

    // --- Phase 1 (initialization, §5.1).
    let span_init = eclat_obs::trace::span(PHASE_INIT);
    let t_init = Instant::now();
    let tri = count_pairs_blocked(db, threads, meter);
    let l2 = frequent_l2(&tri, threshold);
    stats.record_level(2, tri.cells() as u64, l2.len() as u64);
    if cfg.include_singletons {
        let (counted, inserted) = insert_frequent_singletons(db, threshold, meter, &mut out);
        stats.record_level(1, counted, inserted);
    }
    stats.phases.push(PhaseStats {
        label: PHASE_INIT.to_string(),
        secs: t_init.elapsed().as_secs_f64(),
        ops: meter.since(&start_ops),
    });
    drop(span_init);
    if l2.is_empty() {
        stats.num_frequent = out.len() as u64;
        stats.total_ops = meter.since(&start_ops);
        return (out, stats);
    }

    // --- Phase 2 (transformation, §5.2.2).
    let span_transform = eclat_obs::trace::span(PHASE_TRANSFORM);
    let t_transform = Instant::now();
    let ops_before_transform = *meter;
    let classes = vertical_classes(db, &l2, meter);
    stats.phases.push(PhaseStats {
        label: PHASE_TRANSFORM.to_string(),
        secs: t_transform.elapsed().as_secs_f64(),
        ops: meter.since(&ops_before_transform),
    });
    drop(span_transform);

    // --- Phase 3 (asynchronous, §5.3).
    let span_async = eclat_obs::trace::span(PHASE_ASYNC);
    let t_async = Instant::now();
    let ops_before_async = *meter;
    let (found, class_stats) = mine_classes_with(classes, threshold, cfg, meter, threads, kernel);
    out.merge(found);
    stats.phases.push(PhaseStats {
        label: PHASE_ASYNC.to_string(),
        secs: t_async.elapsed().as_secs_f64(),
        ops: meter.since(&ops_before_async),
    });
    drop(span_async);
    for cs in class_stats {
        stats.add_class(cs);
    }
    stats.sort_classes();
    stats.num_frequent = out.len() as u64;
    stats.total_ops = meter.since(&start_ops);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apriori::reference::random_db;

    const PS: [usize; 4] = [1, 2, 3, 8];

    /// `(db, minsup %, cfg)` inputs for the P sweeps: random databases at
    /// several supports, the singleton config and an empty database.
    fn sweep_inputs() -> Vec<(HorizontalDb, f64, EclatConfig)> {
        let mut inputs = vec![
            (random_db(17, 150, 12, 6), 6.0, EclatConfig::default()),
            (random_db(4, 250, 12, 6), 5.0, EclatConfig::default()),
            (
                random_db(2, 120, 10, 5),
                8.0,
                EclatConfig::with_singletons(),
            ),
            (HorizontalDb::of(&[]), 1.0, EclatConfig::default()),
        ];
        for seed in [1u64, 5, 9] {
            for pct in [4.0, 10.0] {
                inputs.push((random_db(seed, 200, 14, 6), pct, EclatConfig::default()));
            }
        }
        inputs
    }

    #[test]
    fn threads_match_serial_for_any_p() {
        for (n, (db, pct, cfg)) in sweep_inputs().into_iter().enumerate() {
            let minsup = MinSupport::from_percent(pct);
            let mut m_serial = OpMeter::new();
            let expect = run(&db, minsup, &cfg, &mut m_serial, &Serial);
            if db.num_transactions() > 0 {
                assert!(m_serial.record > 0, "counting scans must be metered");
                assert!(m_serial.pair_incr > 0, "triangular pass must be metered");
            }
            for p in PS {
                let mut m = OpMeter::new();
                let fs = run(&db, minsup, &cfg, &mut m, &Threads::new(p));
                assert_eq!(fs, expect, "input {n} P={p}");
                // Merged per-thread meters must equal the serial counts.
                assert_eq!(m, m_serial, "input {n} P={p}");
            }
        }
    }

    #[test]
    fn run_stats_match_serial_for_any_p() {
        let db = random_db(29, 200, 12, 6);
        let minsup = MinSupport::from_percent(5.0);
        let cfg = EclatConfig::default();
        let (fs_s, seq) = run_stats(&db, minsup, &cfg, &mut OpMeter::new(), &Serial, "x");
        for p in PS {
            let threads = Threads::new(p);
            let (fs_p, par) = run_stats(&db, minsup, &cfg, &mut OpMeter::new(), &threads, "x");
            assert_eq!(fs_s, fs_p, "P={p}");
            // Everything except wall-clock seconds is schedule-independent;
            // class stats come back in class order despite the pulling.
            assert_eq!(seq.total_ops, par.total_ops, "P={p}");
            assert_eq!(seq.levels, par.levels, "P={p}");
            assert_eq!(seq.classes, par.classes, "P={p}");
            assert_eq!(seq.kernel_totals(), par.kernel_totals(), "P={p}");
            for (a, b) in seq.phases.iter().zip(&par.phases) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.ops, b.ops, "P={p} {}", a.label);
            }
        }
    }

    #[test]
    fn blocked_phases_match_serial_scans() {
        let db = random_db(41, 300, 12, 6);
        let mut m_tri = OpMeter::new();
        let tri = count_pairs(&db, 0..db.num_transactions(), &mut m_tri);
        let l2 = frequent_l2(&tri, 5);
        assert!(!l2.is_empty());
        let idx = index_pairs(&l2);
        let mut m_serial = OpMeter::new();
        let serial = build_pair_tidlists(&db, 0..db.num_transactions(), &idx, &mut m_serial);
        for p in PS {
            let threads = Threads::new(p);
            let mut m = OpMeter::new();
            let blocked_tri = count_pairs_blocked(&db, &threads, &mut m);
            assert_eq!(blocked_tri.raw(), tri.raw(), "P={p}");
            assert_eq!(m, m_tri, "P={p}");
            let mut m = OpMeter::new();
            let blocked =
                build_pair_tidlists_blocked(&db, 0..db.num_transactions(), &idx, &threads, &mut m);
            assert_eq!(blocked, serial, "P={p}");
            assert_eq!(m, m_serial, "P={p}");
        }
    }

    /// `(side, db, minsup %)`: T10.I6 samples whose classes are all
    /// sparse, random and Quest databases whose classes are all dense,
    /// and a small Quest sample with classes on both sides. The root
    /// golden, incremental and dmine suites mine these same inputs, so
    /// this pins which side of the choice each of them covers.
    fn kernel_inputs() -> Vec<(&'static str, HorizontalDb, f64)> {
        use questgen::{QuestGenerator, QuestParams};
        let quest = |p| HorizontalDb::from_transactions(QuestGenerator::new(p).generate_all());
        let t10 = |seed| quest(QuestParams::t10_i6(3_000).with_seed(seed));
        // Every transaction holds one 6-item core: deep, all dense.
        let core = (0..100u32)
            .map(|i| {
                (0..6)
                    .chain((i % 10 == 0).then_some(6 + i / 10 % 3))
                    .map(ItemId)
                    .collect()
            })
            .collect();
        vec![
            ("sparse", t10(5), 0.5),
            ("sparse", t10(5), 1.0),
            ("sparse", t10(42), 0.5),
            ("dense", random_db(23, 120, 10, 5), 8.0),
            ("dense", random_db(4, 250, 12, 6), 5.0),
            ("dense", quest(QuestParams::dense(1_000, 7)), 10.0),
            ("dense", quest(QuestParams::dense(1_500, 7)), 20.0),
            ("dense", quest(QuestParams::tiny(800, 42)), 3.0),
            ("mixed", quest(QuestParams::tiny(2_000, 42)), 1.5),
            ("core", HorizontalDb::from_transactions(core), 50.0),
        ]
    }

    #[test]
    fn every_kernel_matches_the_paper_tidlists() {
        let bitmaps: ClassKernel =
            |c, t, cfg, m, out, s| compute_frequent_stats(bitmap_class(c), t, cfg, m, out, s);
        let diffsets: ClassKernel =
            |c, t, cfg, m, out, s| compute_frequent_stats(diffset_class(c), t, cfg, m, out, s);
        let cfg = EclatConfig::default();
        for (side, db, pct) in kernel_inputs() {
            let threshold = MinSupport::from_percent(pct).count_threshold(db.num_transactions());
            let tri = count_pairs(&db, 0..db.num_transactions(), &mut OpMeter::new());
            let classes = vertical_classes(&db, &frequent_l2(&tri, threshold), &mut OpMeter::new());
            let n = classes.len();
            let dense = classes.iter().filter(|c| class_is_dense(c)).count();
            let expect_dense = match side {
                "sparse" => 0..=0,
                "dense" | "core" => n..=n,
                _ => 1..=n - 1,
            };
            assert!(expect_dense.contains(&dense), "{side}: {dense} of {n}");
            // The paper's tid-lists first, then each kernel under test, with
            // whether it mines some class on diffsets.
            let kernels = [
                (compute_frequent_stats::<TidList> as ClassKernel, false),
                (compute_class_stats, dense < n),
                (bitmaps, false),
                (diffsets, true),
            ];
            let mut runs = Vec::new();
            for (kernel, on_diffsets) in kernels {
                let m = &mut OpMeter::new();
                let (got, stats) =
                    mine_classes_with(classes.clone(), threshold, &cfg, m, &Serial, kernel);
                // A frequent join below L2 on a diffset class is a switch.
                let switches: u64 = stats.iter().map(|c| c.kernel.switch_events).sum();
                assert_eq!(switches > 0, on_diffsets, "{side} {pct}%");
                // One candidate lattice, walked through the one join loop.
                let levels: Vec<_> = stats.into_iter().map(|c| c.kernel.levels).collect();
                runs.push((got, levels, m.tid_cmp));
            }
            assert!(runs[0].0.max_size() >= 3, "{side} {pct}% mines below L2");
            for run in &runs[1..] {
                assert_eq!((&run.0, &run.1), (&runs[0].0, &runs[0].1), "{side} {pct}%");
            }
            // Under a shared core, diffsets stay near-empty while tid-lists
            // stay long: d-Eclat touches fewer elements.
            if side == "core" {
                assert!(runs[3].2 < runs[0].2, "{} vs {}", runs[3].2, runs[0].2);
            }
        }
    }

    #[test]
    fn class_is_dense_at_the_threshold_and_on_an_empty_window() {
        // One member over tids 0..8000 (125 words): dense exactly when
        // support · 1000 ≥ DENSE_PERMILLE · 8000.
        let class_of = |tids: Vec<Vec<u32>>| EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: (1..)
                .zip(tids)
                .map(|(b, t)| ClassMember {
                    itemset: Itemset::of(&[0, b]),
                    tids: TidList::of(&t),
                })
                .collect(),
        };
        let with_support = |n: u64| class_of(vec![(0..n as u32 - 1).chain([7_999]).collect()]);
        let at = DENSE_PERMILLE * 8;
        assert!(
            class_is_dense(&with_support(at)),
            "exactly at the threshold"
        );
        assert!(!class_is_dense(&with_support(at - 1)), "one tid below it");
        // Members with no tids span a zero-width window: dense, and the
        // zero-width bitmaps mine to nothing.
        let empty = class_of(vec![vec![], vec![]]);
        assert!(class_is_dense(&empty));
        let (cfg, mut out) = (EclatConfig::default(), FrequentSet::new());
        compute_class_stats(
            empty,
            1,
            &cfg,
            &mut OpMeter::new(),
            &mut out,
            &mut KernelStats::new(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn run_stats_reports_phases_levels_and_classes() {
        let db = random_db(17, 150, 12, 6);
        let minsup = MinSupport::from_percent(6.0);
        let cfg = EclatConfig::default();
        let mut meter = OpMeter::new();
        let (fs, stats) = run_stats(&db, minsup, &cfg, &mut meter, &Serial, "sequential");
        assert_eq!(fs, run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial));
        assert_eq!(stats.variant, "sequential");
        assert_eq!(stats.representation, LABEL_AUTO);
        assert_eq!(stats.transactions, 150);
        assert_eq!(stats.num_frequent, fs.len() as u64);
        assert_eq!(stats.total_ops, meter);
        // The three live phases in order, with ops attributed to each.
        let labels: Vec<&str> = stats.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec![PHASE_INIT, PHASE_TRANSFORM, PHASE_ASYNC]);
        assert!(stats.phases[0].ops.pair_incr > 0, "counting in init");
        assert!(stats.phases[2].ops.tid_cmp > 0, "joins in async");
        // Level 2 comes from the triangle; deeper levels from the kernel.
        assert_eq!(stats.levels[0].size, 2);
        assert!(stats.levels[0].candidates >= stats.levels[0].frequent);
        let l2_frequent = stats.levels[0].frequent;
        assert_eq!(
            l2_frequent,
            fs.iter().filter(|(is, _)| is.len() == 2).count() as u64
        );
        // Classes are sorted by prefix and their frequent counts plus L2
        // plus singletons account for the whole output.
        assert!(!stats.classes.is_empty());
        for w in stats.classes.windows(2) {
            assert!(w[0].prefix < w[1].prefix);
        }
        let kernel_frequent: u64 = stats.classes.iter().map(|c| c.kernel.frequent).sum();
        assert_eq!(kernel_frequent + l2_frequent, stats.num_frequent);
        assert!(stats.cluster.is_none(), "live run has no simulated cluster");
    }

    #[test]
    fn run_stats_empty_l2_still_reports() {
        let db = dbstore::HorizontalDb::of(&[&[0, 1], &[2, 3], &[4, 5]]);
        let (fs, stats) = run_stats(
            &db,
            MinSupport::from_fraction(0.6),
            &EclatConfig::with_singletons(),
            &mut OpMeter::new(),
            &Serial,
            "sequential",
        );
        assert_eq!(stats.num_frequent, fs.len() as u64);
        assert_eq!(stats.phases.len(), 1, "only init runs");
        assert_eq!(stats.phases[0].label, PHASE_INIT);
        // Level 1 recorded from the singleton pass, level 2 all-infrequent.
        assert!(stats.levels.iter().any(|l| l.size == 1));
        let l2 = stats.levels.iter().find(|l| l.size == 2).unwrap();
        assert_eq!(l2.frequent, 0);
    }
}
