//! The recursive SPADE kernel: prefix equivalence classes of sequence
//! atoms and the two extension joins.
//!
//! A class groups all frequent `k`-sequences sharing a `(k-1)`-prefix;
//! each member is an *atom* — the one item the member adds, tagged with
//! **how** it was added:
//!
//! * [`AtomKind::Itemset`] — the item joined the prefix's last element
//!   (`⟨… {X}⟩ → ⟨… {X,y}⟩`);
//! * [`AtomKind::Sequence`] — the item opened a new element
//!   (`⟨…⟩ → ⟨… → {y}⟩`).
//!
//! Extending member `m` with sibling `s` (SPADE's candidate rules,
//! applied once per child so no deduplication pass is needed):
//!
//! | `m`       | `s`                         | join                          | child atom |
//! |-----------|-----------------------------|-------------------------------|------------|
//! | `Itemset` | `Itemset`, `s.item > m.item`| equality (I-extension)        | `Itemset`  |
//! | `Itemset` | `Sequence` (any)            | temporal `m` → `s`            | `Sequence` |
//! | `Sequence`| `Sequence`, `s.item > m.item`| equality (I-extension)       | `Itemset`  |
//! | `Sequence`| `Sequence` (any, incl. `s = m`)| temporal `m` → `s`         | `Sequence` |
//!
//! `Itemset` siblings never extend a `Sequence` member — that candidate
//! belongs to (and is generated in) the sibling's own class. The
//! self-join row is what finds repeats (`a → a`); it terminates because
//! every temporal self-join strictly drops each sid's earliest
//! occurrence.
//!
//! Both joins run through [`PairSet`]'s metered/bounded surface, so the
//! §5.3 short-circuit and `tid_cmp` accounting work exactly as in the
//! itemset kernel.

use crate::pairset::PairSet;
use crate::pattern::SeqPattern;
use mining_types::stats::KernelStats;
use mining_types::{ItemId, OpMeter};
use std::collections::BTreeMap;
use tidlist::TidSet;

/// Frequent sequences with their supports, in canonical pattern order.
pub type FrequentSequences = BTreeMap<SeqPattern, u32>;

/// How a member's atom extends its class prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AtomKind {
    /// The atom joined the prefix's last element (same eid).
    Itemset,
    /// The atom opened a new element (strictly later eid).
    Sequence,
}

/// One member of a sequence equivalence class.
#[derive(Clone, Debug)]
pub struct SeqMember {
    /// How `item` extends the class prefix.
    pub kind: AtomKind,
    /// The added item.
    pub item: ItemId,
    /// The member's full pattern (prefix + atom).
    pub pattern: SeqPattern,
    /// Occurrences of the pattern's last element.
    pub pairs: PairSet,
}

/// Knobs for the recursive kernel.
#[derive(Clone, Debug)]
pub struct SeqConfig {
    /// Cap on pattern length in items (`--maxlen`); `None` = unbounded.
    pub maxlen: Option<u32>,
    /// Bail out of joins that provably cannot reach minsup (§5.3).
    pub short_circuit: bool,
}

impl Default for SeqConfig {
    fn default() -> SeqConfig {
        SeqConfig {
            maxlen: None,
            short_circuit: true,
        }
    }
}

/// True when members of this length may still be extended.
fn may_extend(cfg: &SeqConfig, parent_len: usize) -> bool {
    cfg.maxlen.is_none_or(|k| (parent_len as u32) < k)
}

/// Generate member `i`'s child class: every frequent extension of
/// `members[i]` by its eligible siblings, in canonical member order
/// (Itemset atoms first, then Sequence atoms; items ascending within
/// each kind — `members` itself is already in that order).
fn extend_member(
    members: &[SeqMember],
    i: usize,
    threshold: u32,
    cfg: &SeqConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSequences,
    stats: &mut KernelStats,
) -> Vec<SeqMember> {
    let m = &members[i];
    let child_len = (m.pattern.len_items() + 1) as u64;
    let mut next: Vec<SeqMember> = Vec::new();

    let join = |sib: &SeqMember,
                temporal: bool,
                meter: &mut OpMeter,
                stats: &mut KernelStats|
     -> Option<PairSet> {
        meter.cand_gen += 1;
        stats.record_candidate(child_len);
        let joined = match (cfg.short_circuit, temporal) {
            (true, true) => m
                .pairs
                .temporal_join_bounded_metered(&sib.pairs, threshold, meter),
            (true, false) => m.pairs.join_bounded_metered(&sib.pairs, threshold, meter),
            (false, temporal) => {
                let full = if temporal {
                    m.pairs.temporal_join_metered(&sib.pairs, meter)
                } else {
                    m.pairs.join_metered(&sib.pairs, meter)
                };
                (full.support() >= threshold).then_some(full)
            }
        };
        if joined.is_none() {
            stats.record_infrequent(cfg.short_circuit);
        } else {
            stats.record_frequent(child_len);
            meter.record += 1;
        }
        joined
    };

    // I-extensions: same-kind siblings with a larger item.
    for sib in members {
        if sib.kind != m.kind || sib.item <= m.item {
            continue;
        }
        if let Some(pairs) = join(sib, false, meter, stats) {
            let pattern = m.pattern.i_extend(sib.item);
            out.insert(pattern.clone(), pairs.support());
            next.push(SeqMember {
                kind: AtomKind::Itemset,
                item: sib.item,
                pattern,
                pairs,
            });
        }
    }
    // S-extensions: every Sequence sibling (self included when `m` is a
    // Sequence atom).
    for sib in members {
        if sib.kind != AtomKind::Sequence {
            continue;
        }
        if let Some(pairs) = join(sib, true, meter, stats) {
            let pattern = m.pattern.s_extend(sib.item);
            out.insert(pattern.clone(), pairs.support());
            next.push(SeqMember {
                kind: AtomKind::Sequence,
                item: sib.item,
                pattern,
                pairs,
            });
        }
    }
    next
}

/// Depth-first recursion over one class's subtree. `members` must be in
/// canonical order and all of the same item-length; their patterns are
/// assumed already recorded by the caller.
pub(crate) fn recurse(
    members: &[SeqMember],
    threshold: u32,
    cfg: &SeqConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSequences,
    stats: &mut KernelStats,
) {
    let Some(first) = members.first() else {
        return;
    };
    if !may_extend(cfg, first.pattern.len_items()) {
        return;
    }
    let parent_bytes: u64 = members.iter().map(|m| m.pairs.byte_size()).sum();
    for i in 0..members.len() {
        let child = extend_member(members, i, threshold, cfg, meter, out, stats);
        let child_bytes: u64 = child.iter().map(|m| m.pairs.byte_size()).sum();
        stats.observe_level_bytes(parent_bytes + child_bytes);
        recurse(&child, threshold, cfg, meter, out, stats);
    }
}

/// Largest-weight class weights for the §5.2.1 greedy schedule: the
/// same `C(s, 2)` pair-count estimate the itemset pipeline uses, on the
/// class's member count (every member pair is a potential join).
pub fn class_weight(members: usize) -> u64 {
    mining_types::itemset::choose2(members).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(kind: AtomKind, item: u32, pairs: &[(u32, u32)]) -> SeqMember {
        let pattern = match kind {
            AtomKind::Itemset => SeqPattern::of(&[&[0, item]]),
            AtomKind::Sequence => SeqPattern::of(&[&[0], &[item]]),
        };
        SeqMember {
            kind,
            item: ItemId(item),
            pattern,
            pairs: PairSet::new(pairs.to_vec()),
        }
    }

    #[test]
    fn self_join_terminates_and_finds_repeats() {
        // ⟨{0}→{1}⟩ occurring at events 2,3,4 of sid 0: the self-join
        // chain yields 0→1→1 and 0→1→1→1 and then runs dry.
        let members = vec![member(AtomKind::Sequence, 1, &[(0, 2), (0, 3), (0, 4)])];
        let mut out = FrequentSequences::new();
        let cfg = SeqConfig::default();
        recurse(
            &members,
            1,
            &cfg,
            &mut OpMeter::new(),
            &mut out,
            &mut KernelStats::new(),
        );
        let patterns: Vec<String> = out.keys().map(|p| p.to_string()).collect();
        assert_eq!(patterns, vec!["0 -> 1 -> 1", "0 -> 1 -> 1 -> 1"]);
        assert_eq!(out[&SeqPattern::of(&[&[0], &[1], &[1]])], 1);
    }

    #[test]
    fn maxlen_stops_extension() {
        let members = vec![member(AtomKind::Sequence, 1, &[(0, 2), (0, 3), (0, 4)])];
        let mut out = FrequentSequences::new();
        let cfg = SeqConfig {
            maxlen: Some(2),
            ..SeqConfig::default()
        };
        recurse(
            &members,
            1,
            &cfg,
            &mut OpMeter::new(),
            &mut out,
            &mut KernelStats::new(),
        );
        assert!(out.is_empty(), "members are already at maxlen");
    }

    #[test]
    fn itemset_siblings_do_not_extend_sequence_members() {
        // Class of ⟨{0}⟩ with one Itemset atom {0,1} and one Sequence
        // atom 0→2 that never co-occur: only the Itemset member may pick
        // up the Sequence sibling.
        let members = vec![
            member(AtomKind::Itemset, 1, &[(0, 1), (1, 1)]),
            member(AtomKind::Sequence, 2, &[(0, 5), (1, 4)]),
        ];
        let mut out = FrequentSequences::new();
        recurse(
            &members,
            2,
            &SeqConfig::default(),
            &mut OpMeter::new(),
            &mut out,
            &mut KernelStats::new(),
        );
        // ⟨{0,1} → {2}⟩ holds in both sids; nothing else is frequent.
        assert_eq!(out.len(), 1);
        assert_eq!(out[&SeqPattern::of(&[&[0, 1], &[2]])], 2);
    }

    #[test]
    fn short_circuit_on_and_off_agree() {
        let members = vec![
            member(AtomKind::Itemset, 1, &[(0, 1), (1, 1), (2, 3)]),
            member(AtomKind::Sequence, 1, &[(0, 5), (2, 4), (3, 1)]),
            member(AtomKind::Sequence, 2, &[(0, 2), (1, 2), (2, 9)]),
        ];
        let mine = |sc: bool| {
            let mut out = FrequentSequences::new();
            let cfg = SeqConfig {
                short_circuit: sc,
                ..SeqConfig::default()
            };
            let mut stats = KernelStats::new();
            recurse(&members, 2, &cfg, &mut OpMeter::new(), &mut out, &mut stats);
            (out, stats.joins)
        };
        let (with, cand_with) = mine(true);
        let (without, cand_without) = mine(false);
        assert_eq!(with, without);
        assert_eq!(cand_with, cand_without, "same candidates either way");
    }

    #[test]
    fn class_weight_is_pairish() {
        assert_eq!(class_weight(0), 1);
        assert_eq!(class_weight(1), 1);
        assert_eq!(class_weight(4), 6);
    }
}
