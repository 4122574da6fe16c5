//! Horizontal → vertical transformation helpers (§5.2.2 / §6.3).
//!
//! Two pieces: the triangular `L2` counting pass of the initialization
//! phase (§5.1 — *"we use an upper triangular array … Each processor
//! computes local support of each 2-itemset from its local database
//! partition"*), and the construction of per-2-itemset tid-lists from a
//! (block of a) horizontal database — born sorted because transactions
//! are scanned in tid order.
//!
//! The tid-lists are built two ways. [`build_pair_tidlists`] pushes onto
//! growing lists; the simulated cluster variants use it. [`place_pair_tids`]
//! is §6.3's offset placement: phase 1's per-block counts give each block
//! an exact-size window of every global list, and the block's scan writes
//! its tids straight into those windows, looking pairs up in the dense
//! [`PairSlots`] table. The measured pipeline and the distributed worker
//! run it, one block per thread
//! ([`crate::pipeline::place_pair_tidlists`]).

use dbstore::HorizontalDb;
use mining_types::{FxHashMap, ItemId, OpMeter, Tid, TriangleMatrix};
use std::ops::Range;
use tidlist::TidList;

/// Count all 2-itemsets of the block `range` into a triangular matrix.
pub fn count_pairs(db: &HorizontalDb, range: Range<usize>, meter: &mut OpMeter) -> TriangleMatrix {
    let _span = eclat_obs::trace::span_arg("scan:count_pairs", range.len() as u64);
    let mut tri = TriangleMatrix::new(db.num_items() as usize);
    for (_tid, items) in db.iter_range(range) {
        meter.record += 1;
        meter.pair_incr += (items.len() * items.len().saturating_sub(1) / 2) as u64;
        tri.count_transaction(items);
    }
    tri
}

/// Item counts of the block `range` (for the optional singleton output).
pub fn count_items(db: &HorizontalDb, range: Range<usize>, meter: &mut OpMeter) -> Vec<u32> {
    let mut counts = vec![0u32; db.num_items() as usize];
    for (_tid, items) in db.iter_range(range) {
        meter.record += 1;
        for &it in items {
            counts[it.index()] += 1;
        }
    }
    counts
}

/// Build the partial tid-lists of the given frequent 2-itemsets over the
/// block `range`. `pairs` maps `(a, b)` (with `a < b`) to an output slot;
/// the result vector is aligned with those slots.
///
/// This is the second database scan of Eclat (§5.2.2 step one: *"each
/// processor scans its local database and constructs partial tid-lists
/// for all the frequent 2-itemsets"*).
pub fn build_pair_tidlists(
    db: &HorizontalDb,
    range: Range<usize>,
    pairs: &FxHashMap<(ItemId, ItemId), usize>,
    meter: &mut OpMeter,
) -> Vec<TidList> {
    let _span = eclat_obs::trace::span_arg("scan:tidlists", range.len() as u64);
    let num_slots = pairs.len();
    let mut lists = vec![TidList::new(); num_slots];
    for (tid, items) in db.iter_range(range) {
        meter.record += 1;
        for (i, &a) in items.iter().enumerate() {
            for &b in &items[i + 1..] {
                meter.pair_incr += 1;
                if let Some(&slot) = pairs.get(&(a, b)) {
                    meter.record += 1;
                    lists[slot].push(tid);
                }
            }
        }
    }
    lists
}

/// The slot of every frequent pair, as a triangle over the items that
/// occur in some pair: a probe is one indexed load, not a hash lookup.
/// Items are renumbered densely in ascending order, so the table has at
/// most the cells of phase 1's triangle.
pub struct PairSlots {
    /// Dense index of each item in some pair, [`NO_SLOT`] for the rest.
    dense: Vec<u32>,
    /// Number of items in some pair.
    m: usize,
    /// Slot of each dense pair in triangle order, [`NO_SLOT`] if none.
    slots: Vec<u32>,
}

/// [`PairSlots`]' mark for an item in no pair and a pair with no slot.
const NO_SLOT: u32 = u32::MAX;

impl PairSlots {
    /// Give `frequent_pairs[s]` slot `s`, as [`index_pairs`] does, with
    /// the same checks.
    ///
    /// # Panics
    /// Panics if a pair is not ordered `a < b` or occurs twice.
    pub fn new(frequent_pairs: &[(ItemId, ItemId)]) -> Self {
        let mut dense = Vec::new();
        for &(a, b) in frequent_pairs {
            assert!(a < b, "pairs must be ordered");
            if dense.len() <= b.index() {
                dense.resize(b.index() + 1, NO_SLOT);
            }
            dense[a.index()] = 0;
            dense[b.index()] = 0;
        }
        let mut m = 0;
        for d in dense.iter_mut().filter(|d| **d != NO_SLOT) {
            *d = m;
            m += 1;
        }
        let m = m as usize;
        let mut table = PairSlots {
            dense,
            m,
            slots: vec![NO_SLOT; m * m.saturating_sub(1) / 2],
        };
        for (slot, &(a, b)) in frequent_pairs.iter().enumerate() {
            let (i, j) = (table.dense[a.index()], table.dense[b.index()]);
            let cell = table.row_start(i) + (j - i - 1) as usize;
            assert!(table.slots[cell] == NO_SLOT, "duplicate pair ({a:?},{b:?})");
            table.slots[cell] = slot as u32;
        }
        table
    }

    /// The slot of `(a, b)` with `a < b`, if it is one of the pairs.
    pub fn get(&self, a: ItemId, b: ItemId) -> Option<usize> {
        let dense = |i: ItemId| self.dense.get(i.index()).copied().filter(|&d| d != NO_SLOT);
        let (i, j) = (dense(a)?, dense(b)?);
        if i >= j {
            return None;
        }
        let slot = self.row(i)[(j - i - 1) as usize];
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// First cell of row `i`: rows above it hold (m−1) + … + (m−i) cells.
    #[inline]
    fn row_start(&self, i: u32) -> usize {
        let i = i as usize;
        i * (2 * self.m - i - 1) / 2
    }

    /// Row `i` of the triangle: dense pair `(i, j)` is entry `j − i − 1`.
    #[inline]
    fn row(&self, i: u32) -> &[u32] {
        let start = self.row_start(i);
        &self.slots[start..start + (self.m - i as usize - 1)]
    }

    /// Replace `buf` with the dense ids of the items of `txn` that occur
    /// in some pair, ascending.
    #[inline]
    fn filter_into(&self, txn: &[ItemId], buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(
            txn.iter()
                .filter_map(|i| self.dense.get(i.index()))
                .filter(|&&d| d != NO_SLOT),
        );
    }
}

/// One block's share of §6.3 offset placement: scan `range` in tid order
/// and write the tids of each frequent pair into `windows[slot]`, this
/// block's part of the pair's global list, sized exactly by the block's
/// count. Meters like [`build_pair_tidlists`]: one record per
/// transaction, `C(|t|, 2)` pair increments, one record per placed tid.
///
/// # Panics
/// Panics if the scan does not fill every window exactly: the counts the
/// windows were cut by disagree with the block.
pub fn place_pair_tids(
    db: &HorizontalDb,
    range: Range<usize>,
    slots: &PairSlots,
    mut windows: Vec<&mut [Tid]>,
    meter: &mut OpMeter,
) {
    let _span = eclat_obs::trace::span_arg("scan:tidlists", range.len() as u64);
    let mut dense = Vec::new();
    for (tid, items) in db.iter_range(range) {
        meter.record += 1;
        meter.pair_incr += (items.len() * items.len().saturating_sub(1) / 2) as u64;
        slots.filter_into(items, &mut dense);
        for (k, &i) in dense.iter().enumerate() {
            let row = slots.row(i);
            for &j in &dense[k + 1..] {
                let slot = row[(j - i - 1) as usize];
                if slot != NO_SLOT {
                    meter.record += 1;
                    let window = std::mem::take(&mut windows[slot as usize]);
                    let (cell, rest) = window
                        .split_first_mut()
                        .expect("a block's scan placed more tids than its count");
                    *cell = tid;
                    windows[slot as usize] = rest;
                }
            }
        }
    }
    assert!(
        windows.iter().all(|w| w.is_empty()),
        "a block's scan left a window short of its count"
    );
}

/// Index frequent pairs `(a, b) → slot` in ascending pair order.
pub fn index_pairs(frequent_pairs: &[(ItemId, ItemId)]) -> FxHashMap<(ItemId, ItemId), usize> {
    let mut map = FxHashMap::default();
    for (slot, &(a, b)) in frequent_pairs.iter().enumerate() {
        assert!(a < b, "pairs must be ordered");
        let dup = map.insert((a, b), slot);
        assert!(dup.is_none(), "duplicate pair ({a:?},{b:?})");
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HorizontalDb {
        HorizontalDb::of(&[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2], &[0, 1, 2]])
    }

    #[test]
    fn count_pairs_matches_hand_counts() {
        let db = sample();
        let mut m = OpMeter::new();
        let tri = count_pairs(&db, 0..db.num_transactions(), &mut m);
        assert_eq!(tri.get(ItemId(0), ItemId(1)), 3);
        assert_eq!(tri.get(ItemId(0), ItemId(2)), 3);
        assert_eq!(tri.get(ItemId(1), ItemId(2)), 3);
        // ops: 2 triples (3 pairs each) + 3 pairs (1 each) = 9
        assert_eq!(m.pair_incr, 9);
        assert_eq!(m.record, 5);
    }

    #[test]
    fn partial_counts_sum_to_global() {
        let db = sample();
        let mut m = OpMeter::new();
        let mut left = count_pairs(&db, 0..2, &mut m);
        let right = count_pairs(&db, 2..5, &mut m);
        left.merge_from(&right);
        assert_eq!(left, count_pairs(&db, 0..5, &mut m));
    }

    #[test]
    fn tidlists_match_definition() {
        let db = sample();
        let pairs = vec![
            (ItemId(0), ItemId(1)),
            (ItemId(0), ItemId(2)),
            (ItemId(1), ItemId(2)),
        ];
        let idx = index_pairs(&pairs);
        let mut m = OpMeter::new();
        let lists = build_pair_tidlists(&db, 0..5, &idx, &mut m);
        assert_eq!(lists[0], TidList::of(&[0, 1, 4])); // {0,1}
        assert_eq!(lists[1], TidList::of(&[0, 3, 4])); // {0,2}
        assert_eq!(lists[2], TidList::of(&[0, 2, 4])); // {1,2}
                                                       // support == triangular count
        let tri = count_pairs(&db, 0..5, &mut m);
        for (slot, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(lists[slot].support(), tri.get(a, b));
        }
    }

    #[test]
    fn block_tidlists_concatenate_to_global() {
        let db = sample();
        let pairs = vec![(ItemId(0), ItemId(1))];
        let idx = index_pairs(&pairs);
        let mut m = OpMeter::new();
        let mut left = build_pair_tidlists(&db, 0..2, &idx, &mut m);
        let right = build_pair_tidlists(&db, 2..5, &idx, &mut m);
        left[0].append_partial(&right[0]);
        let global = build_pair_tidlists(&db, 0..5, &idx, &mut m);
        assert_eq!(left[0], global[0]);
    }

    #[test]
    fn count_items_basic() {
        let db = sample();
        let mut m = OpMeter::new();
        let counts = count_items(&db, 0..5, &mut m);
        assert_eq!(counts, vec![4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn index_pairs_rejects_unordered() {
        index_pairs(&[(ItemId(2), ItemId(1))]);
    }

    #[test]
    #[should_panic(expected = "duplicate pair (i1,i4)")]
    fn index_pairs_rejects_duplicates() {
        index_pairs(&[(ItemId(1), ItemId(4)), (ItemId(1), ItemId(4))]);
    }

    #[test]
    fn pair_slots_map_exactly_the_index_pairs_slots() {
        let db = apriori::reference::random_db(8, 200, 14, 6);
        let tri = count_pairs(&db, 0..db.num_transactions(), &mut OpMeter::new());
        for threshold in [1, 8, 20, 1_000] {
            let pairs: Vec<_> = tri
                .frequent_pairs(threshold)
                .map(|(a, b, _)| (a, b))
                .collect();
            let idx = index_pairs(&pairs);
            let slots = PairSlots::new(&pairs);
            // Items past the last pair's included: they map to nothing.
            for a in 0..16 {
                for b in 0..16 {
                    let (a, b) = (ItemId(a), ItemId(b));
                    assert_eq!(slots.get(a, b), idx.get(&(a, b)).copied(), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn pair_slots_reject_unordered() {
        PairSlots::new(&[(ItemId(0), ItemId(1)), (ItemId(2), ItemId(1))]);
    }

    #[test]
    #[should_panic(expected = "duplicate pair (i1,i4)")]
    fn pair_slots_reject_duplicates() {
        PairSlots::new(&[(ItemId(1), ItemId(4)), (ItemId(1), ItemId(4))]);
    }

    #[test]
    fn placement_in_one_block_matches_the_pushed_lists() {
        let db = sample();
        let pairs = vec![(ItemId(0), ItemId(1)), (ItemId(1), ItemId(2))];
        let mut m_push = OpMeter::new();
        let pushed = build_pair_tidlists(&db, 0..5, &index_pairs(&pairs), &mut m_push);
        let mut lists: Vec<Vec<Tid>> = pushed.iter().map(|l| vec![Tid(0); l.len()]).collect();
        let windows = lists.iter_mut().map(|l| l.as_mut_slice()).collect();
        let mut m = OpMeter::new();
        place_pair_tids(&db, 0..5, &PairSlots::new(&pairs), windows, &mut m);
        let placed: Vec<TidList> = lists.into_iter().map(TidList::from_sorted).collect();
        assert_eq!(placed, pushed);
        assert_eq!(m, m_push);
    }

    #[test]
    #[should_panic(expected = "more tids than its count")]
    fn placement_rejects_a_window_too_short() {
        let db = sample();
        let pairs = [(ItemId(0), ItemId(1))];
        let mut list = vec![Tid(0); 2]; // {0,1} occurs three times
        let windows = vec![list.as_mut_slice()];
        place_pair_tids(
            &db,
            0..5,
            &PairSlots::new(&pairs),
            windows,
            &mut OpMeter::new(),
        );
    }
}
