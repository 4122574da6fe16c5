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
//!    per-class recursive mining (§5.3), dispatched to the
//!    representation picked by [`EclatConfig::representation`].
//!
//! [`run`] composes the phases on a [`Threads`] pool: [`Serial`]
//! reproduces the sequential algorithm, `Threads::new(0)` the
//! shared-memory one on every core. The cluster and hybrid variants
//! interleave the phases with the simulated communication/cost model, so
//! they call the phase helpers directly instead of [`run`] — but their
//! per-class mining is the same [`mine_classes`] used here,
//! representation dispatch included.

use crate::compute::{compute_frequent_stats, EclatConfig, Representation};
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
use tidlist::{AdaptiveSet, BitmapSet, ChunkedList, GallopList};

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

/// Phase 3 for one class: record its members (they are frequent by
/// construction), then run the recursive kernel on the configured
/// representation. Returns the per-class work statistics.
pub fn mine_class(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) -> ClassStats {
    for m in &class.members {
        out.insert(m.itemset.clone(), m.tids.support());
    }
    let mut stats = ClassStats {
        prefix: class.prefix.items().iter().map(|i| i.0).collect(),
        members: class.members.len() as u64,
        kernel: KernelStats::new(),
    };
    compute_class_stats(class, threshold, cfg, meter, out, &mut stats.kernel);
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
    let weights = class_weights(&classes, cfg.heuristic);
    let locals: Vec<Mutex<(FrequentSet, OpMeter)>> =
        (0..threads.get()).map(|_| Mutex::default()).collect();
    let stats = threads.map(classes, &weights, |t, i, class| {
        let _span = eclat_obs::trace::span_arg("class", i as u64);
        let mut local = locals[t].lock().expect("per-thread results poisoned");
        let (out, m) = &mut *local;
        mine_class(class, threshold, cfg, m, out)
    });
    let mut out = FrequentSet::new();
    for local in locals {
        let (found, m) = local.into_inner().expect("per-thread results poisoned");
        out.merge(found);
        meter.merge(&m);
    }
    (out, stats)
}

/// Run the recursive kernel on a tid-list `L2` class, dispatching on
/// [`EclatConfig::representation`]. The class members themselves must
/// already be recorded by the caller ([`mine_class`] does both).
///
/// `Diffset` wraps each member with fuel 0 — the first join below `L2`
/// converts to `d(xy·z) = t(xy) − t(xz)` and the subtree continues on
/// diffsets, which is exactly d-Eclat. `AutoSwitch { depth }` delays the
/// conversion `depth` further levels.
pub fn compute_class(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) {
    compute_class_stats(class, threshold, cfg, meter, out, &mut KernelStats::new());
}

/// [`compute_class`] that also fills the kernel work counters.
pub fn compute_class_stats(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
    stats: &mut KernelStats,
) {
    match cfg.representation {
        Representation::TidList if cfg.gallop => {
            compute_frequent_stats(gallop_class(class), threshold, cfg, meter, out, stats)
        }
        Representation::TidList => compute_frequent_stats(class, threshold, cfg, meter, out, stats),
        Representation::Diffset => {
            compute_frequent_stats(fuel_class(class, 0), threshold, cfg, meter, out, stats)
        }
        Representation::AutoSwitch { depth } => {
            compute_frequent_stats(fuel_class(class, depth), threshold, cfg, meter, out, stats)
        }
        Representation::Bitmap => {
            compute_frequent_stats(bitmap_class(class), threshold, cfg, meter, out, stats)
        }
        Representation::AutoDensity { permille } => {
            if class_is_dense(&class, permille) {
                compute_frequent_stats(bitmap_class(class), threshold, cfg, meter, out, stats)
            } else {
                compute_frequent_stats(chunked_class(class), threshold, cfg, meter, out, stats)
            }
        }
    }
}

/// Wrap a tid-list class into the adaptive representation with the given
/// switch budget (`fuel = 0` → pure diffsets below `L2`).
pub(crate) fn fuel_class(class: EquivalenceClass, fuel: u32) -> EquivalenceClass<AdaptiveSet> {
    EquivalenceClass {
        prefix: class.prefix,
        members: class
            .members
            .into_iter()
            .map(|m| ClassMember {
                itemset: m.itemset,
                tids: AdaptiveSet::with_fuel(m.tids, fuel),
            })
            .collect(),
    }
}

/// Wrap a tid-list class into the adaptive-galloping representation
/// (`EclatConfig::gallop`): joins go through
/// `TidList::intersect_adaptive`, picking the exponential-search kernel
/// on skewed operands.
pub(crate) fn gallop_class(class: EquivalenceClass) -> EquivalenceClass<GallopList> {
    EquivalenceClass {
        prefix: class.prefix,
        members: class
            .members
            .into_iter()
            .map(|m| ClassMember {
                itemset: m.itemset,
                tids: GallopList(m.tids),
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

/// Wrap a tid-list class into the chunked-kernel representation: joins
/// run the 8-wide unrolled block merge / chunked galloping kernels — the
/// sparse side of `auto-density`.
pub(crate) fn chunked_class(class: EquivalenceClass) -> EquivalenceClass<ChunkedList> {
    EquivalenceClass {
        prefix: class.prefix,
        members: class
            .members
            .into_iter()
            .map(|m| ClassMember {
                itemset: m.itemset,
                tids: ChunkedList(m.tids),
            })
            .collect(),
    }
}

/// The `auto-density` decision: a class is dense when its average member
/// density over the class's word-aligned tid window reaches
/// `permille / 1000`, i.e. `Σ support · 1000 ≥ permille · members · span`.
/// Integer arithmetic throughout so the decision is exactly reproducible
/// across hosts; an empty window (all members empty) counts as dense —
/// the zero-width bitmap is free.
pub(crate) fn class_is_dense(class: &EquivalenceClass, permille: u32) -> bool {
    let (_, words) = BitmapSet::frame_of(class.members.iter().map(|m| &m.tids));
    let span = words as u64 * 64;
    let sum: u64 = class
        .members
        .iter()
        .map(|m| u64::from(m.tids.support()))
        .sum();
    sum * 1000 >= u64::from(permille) * class.members.len() as u64 * span
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
    let threshold = minsup.count_threshold(db.num_transactions());
    let mut stats = MiningStats::new("eclat", variant, &cfg.representation.to_string());
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
    let (found, class_stats) = mine_classes(classes, threshold, cfg, meter, threads);
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

    #[test]
    fn representations_agree_end_to_end() {
        let db = random_db(23, 120, 10, 5);
        let minsup = MinSupport::from_percent(8.0);
        let base = run(
            &db,
            minsup,
            &EclatConfig::default(),
            &mut OpMeter::new(),
            &Serial,
        );
        for repr in [
            Representation::Diffset,
            Representation::AutoSwitch { depth: 1 },
            Representation::AutoSwitch { depth: 3 },
            Representation::Bitmap,
            Representation::AutoDensity { permille: 8 },
            Representation::AutoDensity { permille: 1000 },
            Representation::AutoDensity { permille: 0 },
        ] {
            let cfg = EclatConfig::with_representation(repr);
            let fs = run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
            assert_eq!(fs, base, "{repr:?}");
        }
    }

    #[test]
    fn gallop_kernel_agrees_with_merge_kernel() {
        let db = random_db(23, 120, 10, 5);
        let minsup = MinSupport::from_percent(8.0);
        let base = run(
            &db,
            minsup,
            &EclatConfig::default(),
            &mut OpMeter::new(),
            &Serial,
        );
        let cfg = EclatConfig {
            gallop: true,
            ..Default::default()
        };
        let mut meter = OpMeter::new();
        assert_eq!(run(&db, minsup, &cfg, &mut meter, &Serial), base);
        assert!(meter.tid_cmp > 0, "galloping joins must stay metered");
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
        assert_eq!(stats.representation, "tidlist");
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
