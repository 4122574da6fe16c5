//! The result type of frequent-itemset mining.
//!
//! Every miner in the workspace — Apriori, Eclat in all four variants,
//! Count Distribution, Candidate Distribution — produces a
//! [`FrequentSet`]: the set `∪_k L_k` of frequent itemsets with their
//! absolute support counts. Integration tests assert the *identical*
//! `FrequentSet` comes out of every algorithm on the same input, which is
//! the workspace's golden correctness invariant.

use crate::hash::FxHashMap;
use crate::itemset::Itemset;

/// One frequent itemset with its absolute support count.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Counted {
    /// The itemset.
    pub itemset: Itemset,
    /// Number of transactions containing it.
    pub support: u32,
}

/// A collection of frequent itemsets with supports.
///
/// Backed by a hash map for `O(1)` support lookup (rule generation probes
/// subsets constantly); iteration is available in sorted order for
/// deterministic output.
///
/// ```
/// use mining_types::{FrequentSet, Itemset};
/// let fs: FrequentSet = [
///     (Itemset::of(&[1]), 10),
///     (Itemset::of(&[2]), 8),
///     (Itemset::of(&[1, 2]), 5),
/// ].into_iter().collect();
/// assert_eq!(fs.support_of(&Itemset::of(&[1, 2])), Some(5));
/// assert_eq!(fs.counts_by_size(), vec![2, 1]);
/// assert_eq!(fs.closure_violation(), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FrequentSet {
    map: FxHashMap<Itemset, u32>,
}

impl FrequentSet {
    /// Empty set.
    pub fn new() -> Self {
        FrequentSet::default()
    }

    /// Insert an itemset with its support.
    ///
    /// # Panics
    /// Panics if the itemset was already present with a *different*
    /// support — two code paths disagreeing on a support is always a bug.
    pub fn insert(&mut self, itemset: Itemset, support: u32) {
        if let Some(&old) = self.map.get(&itemset) {
            assert_eq!(
                old, support,
                "conflicting supports for {itemset}: {old} vs {support}"
            );
            return;
        }
        self.map.insert(itemset, support);
    }

    /// Merge another set into this one (same conflict rule as `insert`).
    /// The smaller set is re-inserted into the larger one.
    pub fn merge(&mut self, mut other: FrequentSet) {
        if other.map.len() > self.map.len() {
            std::mem::swap(self, &mut other);
        }
        for (is, sup) in other.map {
            self.insert(is, sup);
        }
    }

    /// Support of `itemset`, if frequent.
    pub fn support_of(&self, itemset: &Itemset) -> Option<u32> {
        self.map.get(itemset).copied()
    }

    /// Whether `itemset` is present.
    pub fn contains(&self, itemset: &Itemset) -> bool {
        self.map.contains_key(itemset)
    }

    /// Number of frequent itemsets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is frequent.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Largest itemset size present (0 when empty).
    pub fn max_size(&self) -> usize {
        self.map.keys().map(|k| k.len()).max().unwrap_or(0)
    }

    /// Count of frequent `k`-itemsets for each `k` in `1..=max_size` —
    /// the series Figure 6 of the paper plots.
    pub fn counts_by_size(&self) -> Vec<usize> {
        let max = self.max_size();
        let mut counts = vec![0usize; max];
        for k in self.map.keys() {
            counts[k.len() - 1] += 1;
        }
        counts
    }

    /// All itemsets of size `k`, sorted (deterministic order).
    pub fn of_size(&self, k: usize) -> Vec<Counted> {
        let mut v: Vec<Counted> = self
            .map
            .iter()
            .filter(|(is, _)| is.len() == k)
            .map(|(is, &s)| Counted {
                itemset: is.clone(),
                support: s,
            })
            .collect();
        v.sort();
        v
    }

    /// All itemsets, sorted (deterministic order).
    pub fn sorted(&self) -> Vec<Counted> {
        let mut v: Vec<Counted> = self
            .map
            .iter()
            .map(|(is, &s)| Counted {
                itemset: is.clone(),
                support: s,
            })
            .collect();
        v.sort();
        v
    }

    /// Iterate in arbitrary (hash) order; use [`FrequentSet::sorted`] when
    /// determinism matters.
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, u32)> {
        self.map.iter().map(|(is, &s)| (is, s))
    }

    /// Check downward closure: every non-empty subset of every member is
    /// itself a member with support ≥ the member's. Returns the first
    /// violation, if any. (Test oracle for the Apriori property.)
    pub fn closure_violation(&self) -> Option<(Itemset, Itemset)> {
        for (is, &sup) in &self.map {
            if is.len() <= 1 {
                continue;
            }
            for sub in is.one_smaller_subsets() {
                match self.map.get(&sub) {
                    Some(&ssup) if ssup >= sup => {}
                    _ => return Some((is.clone(), sub)),
                }
            }
        }
        None
    }
}

impl PartialEq for FrequentSet {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl Eq for FrequentSet {}

impl FromIterator<(Itemset, u32)> for FrequentSet {
    fn from_iter<I: IntoIterator<Item = (Itemset, u32)>>(iter: I) -> Self {
        let mut fs = FrequentSet::new();
        for (is, s) in iter {
            fs.insert(is, s);
        }
        fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iset(raw: &[u32]) -> Itemset {
        Itemset::of(raw)
    }

    fn sample() -> FrequentSet {
        [
            (iset(&[1]), 10),
            (iset(&[2]), 8),
            (iset(&[1, 2]), 5),
            (iset(&[3]), 6),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn insert_lookup() {
        let fs = sample();
        assert_eq!(fs.support_of(&iset(&[1, 2])), Some(5));
        assert_eq!(fs.support_of(&iset(&[1, 3])), None);
        assert!(fs.contains(&iset(&[3])));
        assert_eq!(fs.len(), 4);
        assert!(!fs.is_empty());
    }

    #[test]
    fn reinsert_same_support_is_idempotent() {
        let mut fs = sample();
        fs.insert(iset(&[1]), 10);
        assert_eq!(fs.len(), 4);
    }

    #[test]
    #[should_panic(expected = "conflicting supports")]
    fn reinsert_different_support_panics() {
        let mut fs = sample();
        fs.insert(iset(&[1]), 11);
    }

    #[test]
    fn counts_by_size_is_figure6_series() {
        let fs = sample();
        assert_eq!(fs.counts_by_size(), vec![3, 1]);
        assert_eq!(FrequentSet::new().counts_by_size(), Vec::<usize>::new());
        assert_eq!(fs.max_size(), 2);
    }

    #[test]
    fn of_size_and_sorted_are_deterministic() {
        let fs = sample();
        let ones = fs.of_size(1);
        assert_eq!(
            ones.iter().map(|c| c.itemset.clone()).collect::<Vec<_>>(),
            vec![iset(&[1]), iset(&[2]), iset(&[3])]
        );
        let all = fs.sorted();
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_combines() {
        let mut a = sample();
        let b: FrequentSet = [(iset(&[4]), 3)].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.support_of(&iset(&[4])), Some(3));
    }

    #[test]
    fn closure_violation_detects_missing_subset() {
        let fs = sample();
        assert_eq!(fs.closure_violation(), None);
        let bad: FrequentSet = [(iset(&[1, 2]), 5), (iset(&[1]), 10)].into_iter().collect();
        let (sup, sub) = bad.closure_violation().expect("violation");
        assert_eq!(sup, iset(&[1, 2]));
        assert_eq!(sub, iset(&[2]));
    }

    #[test]
    fn closure_violation_detects_support_inversion() {
        // subset with *smaller* support than superset is impossible
        let bad: FrequentSet = [(iset(&[1]), 3), (iset(&[2]), 9), (iset(&[1, 2]), 5)]
            .into_iter()
            .collect();
        assert!(bad.closure_violation().is_some());
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = sample();
        let b: FrequentSet = [
            (iset(&[3]), 6),
            (iset(&[1, 2]), 5),
            (iset(&[2]), 8),
            (iset(&[1]), 10),
        ]
        .into_iter()
        .collect();
        assert_eq!(a, b);
    }
}
