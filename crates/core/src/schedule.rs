//! Greedy equivalence-class scheduling (§5.2.1).
//!
//! *"Each equivalence class is assigned a weighting factor based on the
//! number of elements in the class … we assign the weight C(s,2) … we
//! generate a schedule using a greedy heuristic. We sort the classes on
//! the weights, and assign each class in turn to the least loaded
//! processor … Ties are broken by selecting the processor with the
//! smaller identifier."*

use crate::equivalence::EquivalenceClass;
use mining_types::itemset::choose2;
use mining_types::ItemId;
use std::ops::Range;

/// Which class-weight heuristic to schedule with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleHeuristic {
    /// The paper's default: weight `C(s, 2)` for a class of `s` members.
    GreedyPairs,
    /// Weight by the sum of member supports — the refinement the paper
    /// floats as ongoing research.
    SupportWeighted,
    /// No balancing: class `i` to processor `i mod P` (ablation baseline).
    RoundRobin,
}

/// The result of scheduling: `owner[c]` is the processor assigned class
/// `c` (indices into the input class slice), plus the resulting loads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Owning processor per class index.
    pub owner: Vec<usize>,
    /// Total scheduled weight per processor.
    pub load: Vec<u64>,
}

impl Assignment {
    /// Class indices owned by processor `p`, ascending.
    pub fn classes_of(&self, p: usize) -> Vec<usize> {
        (0..self.owner.len())
            .filter(|&c| self.owner[c] == p)
            .collect()
    }

    /// Load imbalance: `max load / mean load` (1.0 = perfect). Returns
    /// 1.0 when total weight is zero.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.load.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.load.len() as f64;
        let max = *self.load.iter().max().unwrap() as f64;
        max / mean
    }
}

/// Schedule `classes` onto `num_procs` processors.
///
/// # Panics
/// Panics if `num_procs == 0`.
pub fn schedule(
    classes: &[EquivalenceClass],
    num_procs: usize,
    heuristic: ScheduleHeuristic,
) -> Assignment {
    schedule_weights(&class_weights(classes, heuristic), num_procs, heuristic)
}

/// Per-class load estimates under `heuristic`: `C(s,2)`, or the sum of
/// member supports for [`ScheduleHeuristic::SupportWeighted`].
pub fn class_weights(classes: &[EquivalenceClass], heuristic: ScheduleHeuristic) -> Vec<u64> {
    classes
        .iter()
        .map(|c| match heuristic {
            ScheduleHeuristic::GreedyPairs | ScheduleHeuristic::RoundRobin => c.weight(),
            ScheduleHeuristic::SupportWeighted => c.support_weight(),
        })
        .collect()
}

/// Shard `classes` across the `num_procs` co-located processors of one
/// host (OS threads of a worker, or the simulated hybrid's intra-host
/// processors): the same `C(s,2)` / support-weight cost model as the
/// cross-host schedule, applied at thread granularity. Returns ascending
/// class indices per processor — the per-thread work lists.
///
/// # Panics
/// Panics if `num_procs == 0`.
pub fn shard_classes(
    classes: &[EquivalenceClass],
    num_procs: usize,
    heuristic: ScheduleHeuristic,
) -> Vec<Vec<usize>> {
    let a = schedule(classes, num_procs, heuristic);
    (0..num_procs).map(|p| a.classes_of(p)).collect()
}

/// Schedule by raw weights (exposed for property tests).
pub fn schedule_weights(
    weights: &[u64],
    num_procs: usize,
    heuristic: ScheduleHeuristic,
) -> Assignment {
    assert!(num_procs > 0, "need at least one processor");
    let mut owner = vec![0usize; weights.len()];
    let mut load = vec![0u64; num_procs];

    match heuristic {
        ScheduleHeuristic::RoundRobin => {
            for (c, &w) in weights.iter().enumerate() {
                let p = c % num_procs;
                owner[c] = p;
                load[p] += w;
            }
        }
        ScheduleHeuristic::GreedyPairs | ScheduleHeuristic::SupportWeighted => {
            // Sort class indices by descending weight (stable: ties keep
            // class order, making the schedule deterministic).
            let mut order: Vec<usize> = (0..weights.len()).collect();
            order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
            // Min-heap keyed on (load, processor id): popping yields the
            // least-loaded processor with ties going to the smaller id —
            // the paper's tie-break — in O(log P) per class instead of an
            // O(P) scan.
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                (0..num_procs).map(|p| Reverse((0u64, p))).collect();
            for c in order {
                let Reverse((l, p)) = heap.pop().expect("heap holds every processor");
                owner[c] = p;
                load[p] = l + weights[c];
                heap.push(Reverse((load[p], p)));
            }
        }
    }
    Assignment { owner, load }
}

/// A complete level-2 schedule derived from the sorted global `L2`:
/// equivalence-class boundaries, the greedy class assignment, and the
/// flattened per-pair owner map the tid-list exchange routes by.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L2Schedule {
    /// Contiguous index ranges into `l2`, one per equivalence class
    /// (pairs sharing a first item).
    pub class_ranges: Vec<Range<usize>>,
    /// The class→processor assignment.
    pub assignment: Assignment,
    /// `slot_owner[s]` is the processor owning `l2[s]`'s class.
    pub slot_owner: Vec<usize>,
}

/// Partition a sorted global `L2` (ascending `(i, j)` pairs with their
/// supports) into first-item equivalence classes and schedule them.
///
/// Both the Memory Channel simulation and the TCP runtime compute this
/// from the same reduced `L2`, so every participant derives an identical
/// schedule without further coordination.
///
/// # Panics
/// Panics if `num_procs == 0`.
pub fn schedule_l2(
    l2: &[(ItemId, ItemId, u32)],
    num_procs: usize,
    heuristic: ScheduleHeuristic,
) -> L2Schedule {
    let _span = eclat_obs::trace::span_arg("schedule:l2", l2.len() as u64);
    let mut class_ranges: Vec<Range<usize>> = Vec::new();
    let mut start = 0usize;
    for i in 1..=l2.len() {
        if i == l2.len() || l2[i].0 != l2[start].0 {
            class_ranges.push(start..i);
            start = i;
        }
    }
    let weights: Vec<u64> = class_ranges
        .iter()
        .map(|r| match heuristic {
            ScheduleHeuristic::SupportWeighted => {
                l2[r.clone()].iter().map(|&(_, _, c)| c as u64).sum()
            }
            _ => choose2(r.len()),
        })
        .collect();
    let assignment = schedule_weights(&weights, num_procs, heuristic);
    let mut slot_owner = vec![0usize; l2.len()];
    for (ci, r) in class_ranges.iter().enumerate() {
        for s in r.clone() {
            slot_owner[s] = assignment.owner[ci];
        }
    }
    L2Schedule {
        class_ranges,
        assignment,
        slot_owner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{classes_of_l2, ClassMember, EquivalenceClass};
    use mining_types::{ItemId, Itemset};
    use tidlist::TidList;

    fn class_of_size(prefix: u32, s: usize) -> EquivalenceClass {
        EquivalenceClass {
            prefix: Itemset::single(ItemId(prefix)),
            members: (0..s)
                .map(|i| ClassMember {
                    itemset: Itemset::pair(ItemId(prefix), ItemId(prefix + 1 + i as u32)),
                    tids: TidList::of(&[i as u32]),
                })
                .collect(),
        }
    }

    #[test]
    fn greedy_assigns_largest_first_to_least_loaded() {
        // weights: C(5,2)=10, C(4,2)=6, C(3,2)=3, C(3,2)=3 on 2 procs
        // → p0: 10, p1: 6+3 = 9, then p1 gets... order 10,6,3,3:
        // p0←10 (load 10), p1←6 (6), p1←3 (9), p1←3 (12)? No: least
        // loaded after (10, 9) is p1 again → p1 = 12. Final (10, 12).
        let classes = vec![
            class_of_size(0, 5),
            class_of_size(10, 4),
            class_of_size(20, 3),
            class_of_size(30, 3),
        ];
        let a = schedule(&classes, 2, ScheduleHeuristic::GreedyPairs);
        assert_eq!(a.owner, vec![0, 1, 1, 1]);
        assert_eq!(a.load, vec![10, 12]);
    }

    #[test]
    fn ties_break_to_smaller_processor() {
        let classes = vec![class_of_size(0, 3), class_of_size(10, 3)];
        let a = schedule(&classes, 3, ScheduleHeuristic::GreedyPairs);
        assert_eq!(a.owner, vec![0, 1]);
        assert_eq!(a.load, vec![3, 3, 0]);
    }

    #[test]
    fn greedy_beats_round_robin_on_skewed_weights() {
        // Adversarial for round-robin: big classes land on one proc.
        let classes: Vec<EquivalenceClass> = (0..8)
            .map(|i| class_of_size(i * 10, if i % 2 == 0 { 8 } else { 2 }))
            .collect();
        let greedy = schedule(&classes, 2, ScheduleHeuristic::GreedyPairs);
        let rr = schedule(&classes, 2, ScheduleHeuristic::RoundRobin);
        assert!(greedy.imbalance() < rr.imbalance());
        assert!(greedy.imbalance() < 1.05, "greedy ≈ balanced here");
    }

    #[test]
    fn support_weighted_uses_tidlist_sizes() {
        let l2 = vec![
            (ItemId(0), ItemId(1), TidList::of(&[1, 2, 3, 4, 5])),
            (ItemId(2), ItemId(3), TidList::of(&[1])),
            (ItemId(4), ItemId(5), TidList::of(&[1, 2])),
        ];
        let classes = classes_of_l2(l2);
        let a = schedule(&classes, 2, ScheduleHeuristic::SupportWeighted);
        // weights 5,1,2 → greedy: p0←5, p1←2, p1←1
        assert_eq!(a.load, vec![5, 3]);
    }

    #[test]
    fn classes_of_returns_sorted_indices() {
        let classes: Vec<EquivalenceClass> = (0..5).map(|i| class_of_size(i * 10, 2)).collect();
        let a = schedule(&classes, 2, ScheduleHeuristic::RoundRobin);
        assert_eq!(a.classes_of(0), vec![0, 2, 4]);
        assert_eq!(a.classes_of(1), vec![1, 3]);
    }

    #[test]
    fn all_work_is_assigned_exactly_once() {
        let classes: Vec<EquivalenceClass> = (0..13)
            .map(|i| class_of_size(i * 10, (i as usize % 5) + 1))
            .collect();
        for h in [
            ScheduleHeuristic::GreedyPairs,
            ScheduleHeuristic::SupportWeighted,
            ScheduleHeuristic::RoundRobin,
        ] {
            let a = schedule(&classes, 4, h);
            assert_eq!(a.owner.len(), classes.len());
            assert!(a.owner.iter().all(|&p| p < 4));
            let covered: usize = (0..4).map(|p| a.classes_of(p).len()).sum();
            assert_eq!(covered, classes.len());
        }
    }

    #[test]
    fn single_processor_gets_everything() {
        let classes: Vec<EquivalenceClass> = (0..4).map(|i| class_of_size(i * 10, 3)).collect();
        let a = schedule(&classes, 1, ScheduleHeuristic::GreedyPairs);
        assert!(a.owner.iter().all(|&p| p == 0));
        assert_eq!(a.imbalance(), 1.0);
    }

    #[test]
    fn schedule_l2_groups_by_first_item_and_maps_slots() {
        // Classes: {0x} of size 3 (weight 3), {2x} of size 2 (weight 1),
        // {5x} of size 1 (weight 0).
        let l2 = vec![
            (ItemId(0), ItemId(1), 4),
            (ItemId(0), ItemId(2), 4),
            (ItemId(0), ItemId(3), 4),
            (ItemId(2), ItemId(3), 4),
            (ItemId(2), ItemId(4), 4),
            (ItemId(5), ItemId(6), 4),
        ];
        let s = schedule_l2(&l2, 2, ScheduleHeuristic::GreedyPairs);
        assert_eq!(s.class_ranges, vec![0..3, 3..5, 5..6]);
        assert_eq!(s.assignment.owner, vec![0, 1, 1]);
        assert_eq!(s.slot_owner, vec![0, 0, 0, 1, 1, 1]);
        for (ci, r) in s.class_ranges.iter().enumerate() {
            for slot in r.clone() {
                assert_eq!(s.slot_owner[slot], s.assignment.owner[ci]);
            }
        }
    }

    #[test]
    fn schedule_l2_empty_input() {
        let s = schedule_l2(&[], 3, ScheduleHeuristic::GreedyPairs);
        assert!(s.class_ranges.is_empty());
        assert!(s.slot_owner.is_empty());
        assert_eq!(s.assignment.load, vec![0, 0, 0]);
    }

    #[test]
    fn imbalance_of_empty_or_zero_weight() {
        let a = schedule_weights(&[], 3, ScheduleHeuristic::GreedyPairs);
        assert_eq!(a.imbalance(), 1.0);
        let b = schedule_weights(&[0, 0], 2, ScheduleHeuristic::GreedyPairs);
        assert_eq!(b.imbalance(), 1.0);
    }
}
