//! The shared three-phase Eclat pipeline.
//!
//! Every variant in this crate runs the same §7 structure — *"The first
//! scan for building L2, the second for transforming the database, and
//! the third for obtaining the frequent itemsets"*. This module owns the
//! three phases once:
//!
//! 1. **Initialization** ([`count_pairs_blocked`] → [`frequent_l2`], plus
//!    [`insert_frequent_singletons`]) — triangular pair counting on the
//!    horizontal layout (§5.1), one transaction block per thread; each
//!    block's counts of the frequent pairs are kept
//!    ([`PairCounts::block_counts`]);
//! 2. **Transformation** ([`place_pair_tidlists`]) — build the `L2`
//!    tid-lists by §6.3 offset placement within the host: every list is
//!    allocated at its exact support, each block writes its tids at its
//!    offset on its own thread, and the lists are grouped into prefix
//!    equivalence classes (§5.2.2, §4.1). [`vertical_classes`] builds the
//!    same classes in one serial scan;
//! 3. **Asynchronous phase** ([`mine_classes`]) — per-class mining
//!    (§5.3) on a [`ClassKernel`], the one step that differs between
//!    miners: [`Eclat`] mines each class on bitmaps or on diffsets as its
//!    density decides ([`compute_class_stats`]), [`PaperTidLists`] on
//!    the paper's tid-lists, [`crate::clique::Clique`] through maximal
//!    cliques and [`crate::maximal::MaxEclat`] with look-ahead, followed
//!    by a global reduce step.
//!
//! [`run_stats_on`] is the one driver that composes the phases, on a
//! [`Threads`] pool: [`Serial`] reproduces the sequential algorithm,
//! `Threads::new(0)` the shared-memory one on every core; [`run`] and
//! [`run_stats`] run it on [`Eclat`]. The cluster and hybrid variants
//! interleave the phases with the simulated communication/cost model, so
//! they call the phase helpers directly, and mine their classes on
//! [`PaperTidLists`] so the cost model prices the comparisons it was
//! calibrated on.

use crate::compute::{compute_frequent_stats, EclatConfig};
use crate::equivalence::{classes_of_l2, ClassMember, EquivalenceClass};
pub use crate::executor::{Serial, Threads};
use crate::schedule::class_weights;
use crate::transform::{
    build_pair_tidlists, count_items, count_pairs, index_pairs, place_pair_tids, PairSlots,
};
use dbstore::HorizontalDb;
use mining_types::stats::{ClassStats, KernelStats, MiningStats, PhaseStats};
use mining_types::{FrequentSet, ItemId, Itemset, MinSupport, OpMeter, Tid, TriangleMatrix};
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
/// merge into `meter`, so counts equal the serial pass. The partial
/// triangles stay in the result until [`PairCounts::block_counts`] keeps
/// what phase 2 needs of them.
pub fn count_pairs_blocked(
    db: &HorizontalDb,
    threads: &Threads,
    meter: &mut OpMeter,
) -> PairCounts {
    let blocks = tid_blocks(0..db.num_transactions(), threads);
    let weights: Vec<u64> = blocks.iter().map(|r| r.len() as u64).collect();
    let partials = threads.map(blocks.clone(), &weights, |_, _, r| {
        let mut m = OpMeter::new();
        (count_pairs(db, r, &mut m), m)
    });
    let mut iter = partials.into_iter();
    let (mut tri, m) = iter.next().expect("at least one block");
    meter.merge(&m);
    let mut rest = Vec::with_capacity(blocks.len() - 1);
    for (t, m) in iter {
        tri.merge_from(&t);
        meter.merge(&m);
        rest.push(t);
    }
    PairCounts { tri, blocks, rest }
}

/// Phase 1's result on a pool: the summed pair counts, plus each block's
/// own counts for §6.3's offsets.
pub struct PairCounts {
    /// The pair counts summed over all blocks.
    pub tri: TriangleMatrix,
    /// The transaction blocks, one per thread, in tid order.
    blocks: Vec<Range<usize>>,
    /// The partial triangles of blocks 1..; block 0's counts are `tri`
    /// minus their sum.
    rest: Vec<TriangleMatrix>,
}

impl PairCounts {
    /// Keep each block's count of every pair of `l2` (P × |L2| counts)
    /// and drop the triangles.
    pub fn block_counts(self, l2: &[(ItemId, ItemId)]) -> BlockCounts {
        let of =
            |tri: &TriangleMatrix| -> Vec<u32> { l2.iter().map(|&(a, b)| tri.get(a, b)).collect() };
        let mut counts = vec![of(&self.tri)];
        for t in &self.rest {
            let block = of(t);
            for (first, c) in counts[0].iter_mut().zip(&block) {
                *first -= c;
            }
            counts.push(block);
        }
        BlockCounts {
            blocks: self.blocks,
            counts,
        }
    }
}

/// Each phase-1 block's count of every frequent pair: where the block's
/// tids go in each global tid-list (§6.3's offset placement).
pub struct BlockCounts {
    /// The transaction blocks, in tid order.
    blocks: Vec<Range<usize>>,
    /// `counts[b][s]`: block `b`'s count of pair slot `s`.
    counts: Vec<Vec<u32>>,
}

/// Phase 2's tid-list construction on a [`Threads`] pool, by §6.3 offset
/// placement. Every global list is allocated at exactly its support and
/// cut into one window per block, at the summed counts of the blocks
/// before it; each block's task scans its transactions and writes its
/// tids straight into its windows ([`place_pair_tids`]), so nothing is
/// pushed, grown or stitched. The lists equal the serial
/// [`build_pair_tidlists`] over `l2` and the merged meters its counts.
///
/// # Panics
/// Panics if `counts` disagree with the database (a window is not
/// filled exactly), or `l2` is not ordered and duplicate-free.
pub fn place_pair_tidlists(
    db: &HorizontalDb,
    l2: &[(ItemId, ItemId)],
    counts: &BlockCounts,
    threads: &Threads,
    meter: &mut OpMeter,
) -> Vec<TidList> {
    let slots = PairSlots::new(l2);
    let mut lists: Vec<Vec<Tid>> = (0..l2.len())
        .map(|s| vec![Tid(0); counts.counts.iter().map(|c| c[s] as usize).sum()])
        .collect();
    let mut windows: Vec<Vec<&mut [Tid]>> = counts
        .blocks
        .iter()
        .map(|_| Vec::with_capacity(l2.len()))
        .collect();
    for (s, list) in lists.iter_mut().enumerate() {
        let mut rest = list.as_mut_slice();
        for (block, c) in windows.iter_mut().zip(&counts.counts) {
            let (window, tail) = rest.split_at_mut(c[s] as usize);
            block.push(window);
            rest = tail;
        }
    }
    let tasks: Vec<_> = counts.blocks.iter().cloned().zip(windows).collect();
    let weights: Vec<u64> = counts.blocks.iter().map(|r| r.len() as u64).collect();
    let meters = threads.map(tasks, &weights, |_, _, (range, windows)| {
        let mut m = OpMeter::new();
        place_pair_tids(db, range, &slots, windows, &mut m);
        m
    });
    for m in &meters {
        meter.merge(m);
    }
    lists.into_iter().map(TidList::from_sorted).collect()
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

/// Phase 2 in one serial scan: the `L2` tid-lists pushed in tid order,
/// needing no phase-1 counts, grouped into prefix equivalence classes.
/// The driver places the same lists on its pool instead
/// ([`place_pair_tidlists`]).
pub fn vertical_classes(
    db: &HorizontalDb,
    l2: &[(ItemId, ItemId)],
    meter: &mut OpMeter,
) -> Vec<EquivalenceClass> {
    let idx = index_pairs(l2);
    let lists = build_pair_tidlists(db, 0..db.num_transactions(), &idx, meter);
    classes_of_lists(l2, lists)
}

/// Group the tid-lists of `l2`'s pairs (aligned with `l2`) into prefix
/// equivalence classes.
fn classes_of_lists(l2: &[(ItemId, ItemId)], lists: Vec<TidList>) -> Vec<EquivalenceClass> {
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

/// The asynchronous phase's per-class step: the one part of the
/// three-phase driver [`run_stats_on`] that differs between miners (see
/// the module docs for the four kernels). A kernel may keep state:
/// [`prepare`](ClassKernel::prepare) sees the frequent pairs first.
pub trait ClassKernel: Sync {
    /// `MiningStats.algorithm` of a run on this kernel.
    fn algorithm(&self) -> &'static str {
        "eclat"
    }

    /// `MiningStats.representation` of a run on this kernel.
    fn representation(&self) -> &'static str {
        LABEL_AUTO
    }

    /// Called once with phase 1's frequent pairs, before any class is
    /// mined (only when there is at least one).
    fn prepare(&mut self, _l2: &[(ItemId, ItemId)]) {}

    /// Mine one tid-list `L2` class into `out`, filling its work
    /// counters. Recording the class members is up to the kernel.
    fn mine_class(
        &self,
        class: EquivalenceClass,
        threshold: u32,
        cfg: &EclatConfig,
        meter: &mut OpMeter,
        out: &mut FrequentSet,
        stats: &mut KernelStats,
    );

    /// A global pass over the merged phase-3 result, run and timed as
    /// the [`PHASE_REDUCE`] phase; `None` (the default) skips the phase.
    fn reduce(&self) -> Option<fn(&FrequentSet) -> FrequentSet> {
        None
    }
}

/// Every frequent itemset: record the class members (frequent by
/// construction), then mine below them with [`compute_class_stats`].
pub struct Eclat;

impl ClassKernel for Eclat {
    fn mine_class(
        &self,
        class: EquivalenceClass,
        threshold: u32,
        cfg: &EclatConfig,
        meter: &mut OpMeter,
        out: &mut FrequentSet,
        stats: &mut KernelStats,
    ) {
        record_members(&class, out);
        compute_class_stats(class, threshold, cfg, meter, out, stats);
    }
}

/// [`Eclat`] with every class mined on plain tid-lists, the §4.2 layout
/// whose comparisons the simulated variants price: the reference the
/// per-class density choice is checked against, not a second way to
/// mine.
pub struct PaperTidLists;

impl ClassKernel for PaperTidLists {
    fn representation(&self) -> &'static str {
        LABEL_TIDLIST
    }

    fn mine_class(
        &self,
        class: EquivalenceClass,
        threshold: u32,
        cfg: &EclatConfig,
        meter: &mut OpMeter,
        out: &mut FrequentSet,
        stats: &mut KernelStats,
    ) {
        record_members(&class, out);
        compute_frequent_stats::<TidList>(class, threshold, cfg, meter, out, stats);
    }
}

/// Record a class's members, which are frequent by construction.
pub(crate) fn record_members(class: &EquivalenceClass, out: &mut FrequentSet) {
    for m in &class.members {
        out.insert(m.itemset.clone(), m.tids.support());
    }
}

/// Phase 3 for one class on the [`Eclat`] kernel. Returns the per-class
/// work statistics.
pub fn mine_class(
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) -> ClassStats {
    class_task(&Eclat, class, threshold, cfg, meter, out)
}

fn class_task(
    kernel: &dyn ClassKernel,
    class: EquivalenceClass,
    threshold: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) -> ClassStats {
    let mut stats = ClassStats {
        prefix: class.prefix.items().iter().map(|i| i.0).collect(),
        members: class.members.len() as u64,
        kernel: KernelStats::new(),
    };
    kernel.mine_class(class, threshold, cfg, meter, out, &mut stats.kernel);
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
    kernel: &dyn ClassKernel,
) -> (FrequentSet, Vec<ClassStats>) {
    let weights = class_weights(&classes, cfg.heuristic);
    let locals: Vec<Mutex<(FrequentSet, OpMeter)>> =
        (0..threads.get()).map(|_| Mutex::default()).collect();
    let stats = threads.map(classes, &weights, |t, i, class| {
        let _span = eclat_obs::trace::span_arg("class", i as u64);
        let mut local = locals[t].lock().expect("per-thread results poisoned");
        let (out, m) = &mut *local;
        class_task(kernel, class, threshold, cfg, m, out)
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

/// Every frequent itemset of size ≥ 2 (plus the frequent singletons
/// under [`EclatConfig::include_singletons`]): [`run_stats`] without the
/// report. On [`Serial`] this is the paper's sequential algorithm, on
/// `Threads::new(0)` the shared-memory one on every core.
pub fn run(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
) -> FrequentSet {
    run_stats(db, minsup, cfg, meter, threads, "sequential").0
}

/// The three-phase driver on the [`Eclat`] kernel, with its
/// [`MiningStats`] report. `variant` labels the report (`"sequential"` /
/// `"parallel"`).
pub fn run_stats(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
    variant: &str,
) -> (FrequentSet, MiningStats) {
    run_stats_on(db, minsup, cfg, meter, threads, variant, &mut Eclat)
}

/// The paper's kernel on one thread: [`run_stats_on`] with
/// [`PaperTidLists`].
pub fn run_tidlist_stats(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
) -> (FrequentSet, MiningStats) {
    run_stats_on(
        db,
        minsup,
        cfg,
        meter,
        &Serial,
        "sequential",
        &mut PaperTidLists,
    )
}

/// Time one phase: a trace span and a [`PhaseStats`] row with the wall
/// clock and the ops `f` metered.
fn phase<T>(
    label: &'static str,
    stats: &mut MiningStats,
    meter: &mut OpMeter,
    f: impl FnOnce(&mut OpMeter) -> T,
) -> T {
    let _span = eclat_obs::trace::span(label);
    let start = Instant::now();
    let before = *meter;
    let result = f(meter);
    stats.phases.push(PhaseStats {
        label: label.to_string(),
        secs: start.elapsed().as_secs_f64(),
        ops: meter.since(&before),
    });
    result
}

/// The three-phase driver, the one place the phases run outside the
/// simulated cluster variants (which interleave them with the cost
/// model): initialization, transformation and the asynchronous phase on
/// `kernel`, then its reduce step if it has one. The report carries
/// per-phase wall-clock/op deltas, per-level candidate/frequent counts
/// and per-class kernel work; live runs have no simulated cluster, so
/// `stats.cluster` is `None`.
pub fn run_stats_on(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
    variant: &str,
    kernel: &mut dyn ClassKernel,
) -> (FrequentSet, MiningStats) {
    let threshold = minsup.count_threshold(db.num_transactions());
    let mut stats = MiningStats::new(kernel.algorithm(), variant, kernel.representation());
    stats.transactions = db.num_transactions() as u64;
    stats.threshold = u64::from(threshold);
    let mut out = FrequentSet::new();
    let start_ops = *meter;

    // --- Phase 1 (initialization, §5.1): triangular counts of all pairs,
    // keeping each block's counts of the frequent ones for phase 2.
    let (l2, cells, singletons, block_counts) = phase(PHASE_INIT, &mut stats, meter, |meter| {
        let counts = count_pairs_blocked(db, threads, meter);
        let singletons = cfg
            .include_singletons
            .then(|| insert_frequent_singletons(db, threshold, meter, &mut out));
        let l2 = frequent_l2(&counts.tri, threshold);
        let cells = counts.tri.cells() as u64;
        let block_counts = counts.block_counts(&l2);
        (l2, cells, singletons, block_counts)
    });
    stats.record_level(2, cells, l2.len() as u64);
    if let Some((counted, inserted)) = singletons {
        stats.record_level(1, counted, inserted);
    }

    if !l2.is_empty() {
        // --- Phase 2 (transformation, §5.2.2 + §6.3): vertical tid-lists
        // for L2, placed block by block.
        let classes = phase(PHASE_TRANSFORM, &mut stats, meter, |meter| {
            let lists = place_pair_tidlists(db, &l2, &block_counts, threads, meter);
            classes_of_lists(&l2, lists)
        });

        // --- Phase 3 (asynchronous, §5.3): per-class mining.
        kernel.prepare(&l2);
        let kernel = &*kernel;
        let (found, class_stats) = phase(PHASE_ASYNC, &mut stats, meter, |meter| {
            mine_classes(classes, threshold, cfg, meter, threads, kernel)
        });
        out.merge(found);
        for cs in class_stats {
            stats.add_class(cs);
        }
        stats.sort_classes();

        if let Some(reduce) = kernel.reduce() {
            out = phase(PHASE_REDUCE, &mut stats, meter, |_| reduce(&out));
        }
    }
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
        let mut kernels: [Box<dyn ClassKernel>; 3] = [
            Box::new(Eclat),
            Box::new(crate::clique::Clique::default()),
            Box::new(crate::maximal::MaxEclat),
        ];
        for (n, (db, pct, cfg)) in sweep_inputs().into_iter().enumerate() {
            let minsup = MinSupport::from_percent(pct);
            for kernel in &mut kernels {
                let name = kernel.algorithm();
                let mut m_serial = OpMeter::new();
                let (expect, _) = run_stats_on(
                    &db,
                    minsup,
                    &cfg,
                    &mut m_serial,
                    &Serial,
                    "x",
                    kernel.as_mut(),
                );
                if db.num_transactions() > 0 {
                    assert!(m_serial.record > 0, "counting scans must be metered");
                    assert!(m_serial.pair_incr > 0, "triangular pass must be metered");
                }
                for p in PS {
                    let mut m = OpMeter::new();
                    let threads = Threads::new(p);
                    let (fs, _) =
                        run_stats_on(&db, minsup, &cfg, &mut m, &threads, "x", kernel.as_mut());
                    assert_eq!(fs, expect, "{name} input {n} P={p}");
                    // Merged per-thread meters must equal the serial counts.
                    assert_eq!(m, m_serial, "{name} input {n} P={p}");
                }
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

    /// `(db, threshold)` inputs for the blocked phases: a random database;
    /// one whose frequent pairs each miss a block at P 2 (items 0–2 fill
    /// the first half, 2–4 the second); five transactions, so P ≥ 3 keeps
    /// one block; and the empty database.
    fn blocked_inputs() -> Vec<(HorizontalDb, u32)> {
        let halves: Vec<&[u32]> = [&[0, 1, 2][..]; 10]
            .into_iter()
            .chain([&[2, 3, 4][..]; 10])
            .collect();
        vec![
            (random_db(41, 300, 12, 6), 5),
            (HorizontalDb::of(&halves), 3),
            (
                HorizontalDb::of(&[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2], &[0, 1, 2]]),
                2,
            ),
            (HorizontalDb::of(&[]), 1),
        ]
    }

    #[test]
    fn blocked_phases_match_serial_scans() {
        for (n, (db, threshold)) in blocked_inputs().into_iter().enumerate() {
            let mut m_tri = OpMeter::new();
            let tri = count_pairs(&db, 0..db.num_transactions(), &mut m_tri);
            let l2 = frequent_l2(&tri, threshold);
            assert_eq!(l2.is_empty(), db.num_transactions() == 0, "input {n}");
            let idx = index_pairs(&l2);
            let mut m_serial = OpMeter::new();
            let serial = build_pair_tidlists(&db, 0..db.num_transactions(), &idx, &mut m_serial);
            for p in PS {
                let threads = Threads::new(p);
                let mut m = OpMeter::new();
                let counts = count_pairs_blocked(&db, &threads, &mut m);
                assert_eq!(counts.tri, tri, "input {n} P={p}");
                assert_eq!(m, m_tri, "input {n} P={p}");
                let one_block = p == 1 || db.num_transactions() < 2 * p;
                assert_eq!(counts.blocks.len() == 1, one_block, "input {n} P={p}");
                let block_counts = counts.block_counts(&l2);
                if n == 1 && p == 2 {
                    for (b, c) in block_counts.counts.iter().enumerate() {
                        assert!(c.contains(&0), "block {b} misses a frequent pair");
                    }
                }
                let mut m = OpMeter::new();
                let placed = place_pair_tidlists(&db, &l2, &block_counts, &threads, &mut m);
                assert_eq!(placed, serial, "input {n} P={p}");
                assert_eq!(m, m_serial, "input {n} P={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "short of its count")]
    fn placement_trips_on_counts_that_disagree_with_the_scan() {
        let (db, threshold) = blocked_inputs().swap_remove(0);
        let threads = Threads::new(2);
        let counts = count_pairs_blocked(&db, &threads, &mut OpMeter::new());
        let l2 = frequent_l2(&counts.tri, threshold);
        let mut block_counts = counts.block_counts(&l2);
        block_counts.counts[1][0] += 1;
        place_pair_tidlists(&db, &l2, &block_counts, &threads, &mut OpMeter::new());
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

    /// A test kernel mining below the recorded members with a plain
    /// per-class function.
    struct Below(
        fn(EquivalenceClass, u32, &EclatConfig, &mut OpMeter, &mut FrequentSet, &mut KernelStats),
    );

    impl ClassKernel for Below {
        fn mine_class(
            &self,
            class: EquivalenceClass,
            threshold: u32,
            cfg: &EclatConfig,
            meter: &mut OpMeter,
            out: &mut FrequentSet,
            stats: &mut KernelStats,
        ) {
            record_members(&class, out);
            (self.0)(class, threshold, cfg, meter, out, stats);
        }
    }

    #[test]
    fn every_kernel_matches_the_paper_tidlists() {
        let bitmaps = Below(|c, t, cfg, m, out, s| {
            compute_frequent_stats(bitmap_class(c), t, cfg, m, out, s)
        });
        let diffsets = Below(|c, t, cfg, m, out, s| {
            compute_frequent_stats(diffset_class(c), t, cfg, m, out, s)
        });
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
            let kernels: [(&dyn ClassKernel, bool); 4] = [
                (&PaperTidLists, false),
                (&Eclat, dense < n),
                (&bitmaps, false),
                (&diffsets, true),
            ];
            let mut runs = Vec::new();
            for (kernel, on_diffsets) in kernels {
                let m = &mut OpMeter::new();
                let (got, stats) =
                    mine_classes(classes.clone(), threshold, &cfg, m, &Serial, kernel);
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

    /// The paper's sequential Eclat with the default config.
    fn eclat(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
        run(
            db,
            minsup,
            &EclatConfig::default(),
            &mut OpMeter::new(),
            &Serial,
        )
    }

    #[test]
    fn toy_database_hand_check() {
        let db = HorizontalDb::of(&[&[0, 1, 2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2], &[3]]);
        let fs = eclat(&db, MinSupport::from_fraction(0.5)); // threshold 3
        assert_eq!(fs.support_of(&Itemset::of(&[0, 1])), Some(3));
        assert_eq!(fs.support_of(&Itemset::of(&[0, 2])), Some(3));
        assert_eq!(fs.support_of(&Itemset::of(&[1, 2])), Some(3));
        assert_eq!(
            fs.support_of(&Itemset::of(&[0, 1, 2])),
            None,
            "support 2 < 3"
        );
        assert_eq!(fs.len(), 3, "no singletons by default");
    }

    #[test]
    fn agrees_with_brute_force() {
        for seed in 0..5u64 {
            let db = random_db(seed, 80, 12, 6);
            for pct in [5.0, 10.0, 25.0] {
                let minsup = MinSupport::from_percent(pct);
                let ours = eclat(&db, minsup);
                let truth: FrequentSet = apriori::reference::brute_force(&db, minsup)
                    .iter()
                    .filter(|(is, _)| is.len() >= 2)
                    .map(|(is, s)| (is.clone(), s))
                    .collect();
                assert_eq!(ours, truth, "seed {seed} pct {pct}");
            }
        }
    }

    #[test]
    fn agrees_with_apriori_including_singletons() {
        let db = random_db(42, 150, 14, 6);
        let minsup = MinSupport::from_percent(6.0);
        let cfg = EclatConfig::with_singletons();
        let ours = run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
        let ap = apriori::mine(&db, minsup);
        assert_eq!(ours, ap);
        assert_eq!(ours.closure_violation(), None);
    }

    #[test]
    fn all_config_combinations_agree() {
        let db = random_db(7, 100, 12, 5);
        let minsup = MinSupport::from_percent(8.0);
        let base = eclat(&db, minsup);
        for short_circuit in [true, false] {
            for prune in [true, false] {
                let cfg = EclatConfig {
                    short_circuit,
                    prune,
                    ..Default::default()
                };
                assert_eq!(
                    run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial),
                    base,
                    "sc={short_circuit} prune={prune}"
                );
            }
        }
    }

    #[test]
    fn empty_database_and_no_frequent_pairs() {
        let empty = HorizontalDb::of(&[]);
        assert!(eclat(&empty, MinSupport::from_percent(1.0)).is_empty());

        // every item occurs once — no frequent pair at threshold 2
        let sparse = HorizontalDb::of(&[&[0, 1], &[2, 3], &[4, 5]]);
        let fs = eclat(&sparse, MinSupport::from_fraction(0.5));
        assert!(fs.is_empty());
    }

    #[test]
    fn meter_reports_the_three_scan_structure() {
        let db = random_db(3, 60, 10, 5);
        let mut meter = OpMeter::new();
        let cfg = EclatConfig::default();
        run(
            &db,
            MinSupport::from_percent(10.0),
            &cfg,
            &mut meter,
            &Serial,
        );
        // two horizontal scans → record >= 2·|D|
        assert!(meter.record >= 120);
        assert!(meter.pair_incr > 0, "triangular pass happened");
        assert!(meter.tid_cmp > 0, "intersections happened");
        assert_eq!(meter.hash_probe, 0, "no hash tree anywhere in Eclat");
    }
}
