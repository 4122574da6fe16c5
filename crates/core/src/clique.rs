//! Maximal-clique itemset clustering — the refinement of the prefix-based
//! equivalence classes introduced in the paper's reference \[18\] (Zaki,
//! Parthasarathy, Ogihara & Li, *New algorithms for fast discovery of
//! association rules*, URCS TR 651), whose "efficient itemset clustering"
//! §1.2 points to.
//!
//! View `L2` as a graph: vertices are frequent items, edges the frequent
//! 2-itemsets. A prefix class `[a]` over-approximates the sub-lattice
//! reachable from `a`: it joins `ab` with `ac` even when `bc` is not
//! frequent, producing candidates doomed by downward closure. A
//! **maximal clique** of the neighborhood of `a` is a *tight* cluster —
//! every pair inside it is frequent — so candidates generated within a
//! clique pass full pairwise pruning by construction.
//!
//! [`clique_clusters`] refines each prefix class into the maximal cliques
//! of its induced subgraph (Bron–Kerbosch with pivoting; class
//! neighborhoods are small at realistic supports), and the [`Clique`]
//! kernel mines each clique with the ordinary recursive kernel,
//! deduplicating overlaps, as the per-class step of the shared
//! three-phase driver.

use crate::compute::EclatConfig;
use crate::equivalence::{ClassMember, EquivalenceClass};
use crate::pipeline::{self, ClassKernel, Threads};
use dbstore::HorizontalDb;
use mining_types::stats::{KernelStats, MiningStats};
use mining_types::{FrequentSet, FxHashSet, ItemId, MinSupport, OpMeter};

/// The `L2` adjacency relation restricted to one prefix class.
struct ClassGraph {
    /// Members (extension items), ascending.
    vertices: Vec<ItemId>,
    /// Adjacency sets over vertex *indices*.
    adj: Vec<FxHashSet<usize>>,
}

impl ClassGraph {
    fn build(members: &[ClassMember], edges: &FxHashSet<(ItemId, ItemId)>) -> ClassGraph {
        let vertices: Vec<ItemId> = members
            .iter()
            .map(|m| *m.itemset.items().last().expect("non-empty member"))
            .collect();
        let mut adj = vec![FxHashSet::default(); vertices.len()];
        for (i, &a) in vertices.iter().enumerate() {
            for (j, &b) in vertices.iter().enumerate().skip(i + 1) {
                let key = if a < b { (a, b) } else { (b, a) };
                if edges.contains(&key) {
                    adj[i].insert(j);
                    adj[j].insert(i);
                }
            }
        }
        ClassGraph { vertices, adj }
    }

    /// Bron–Kerbosch with pivoting; returns maximal cliques as sorted
    /// vertex-index lists (deterministic order).
    fn maximal_cliques(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut r: Vec<usize> = Vec::new();
        let p: FxHashSet<usize> = (0..self.vertices.len()).collect();
        let x: FxHashSet<usize> = FxHashSet::default();
        self.bron_kerbosch(&mut r, p, x, &mut out);
        for c in &mut out {
            c.sort_unstable();
        }
        out.sort();
        out
    }

    fn bron_kerbosch(
        &self,
        r: &mut Vec<usize>,
        p: FxHashSet<usize>,
        mut x: FxHashSet<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if p.is_empty() && x.is_empty() {
            out.push(r.clone());
            return;
        }
        // pivot: vertex of P ∪ X with the largest neighborhood in P
        let pivot = p
            .iter()
            .chain(x.iter())
            .copied()
            .max_by_key(|&u| (self.adj[u].intersection(&p).count(), std::cmp::Reverse(u)))
            .expect("P ∪ X non-empty");
        let mut candidates: Vec<usize> = p
            .iter()
            .copied()
            .filter(|v| !self.adj[pivot].contains(v))
            .collect();
        candidates.sort_unstable(); // determinism
        let mut p = p;
        for v in candidates {
            let np: FxHashSet<usize> = p.intersection(&self.adj[v]).copied().collect();
            let nx: FxHashSet<usize> = x.intersection(&self.adj[v]).copied().collect();
            r.push(v);
            self.bron_kerbosch(r, np, nx, out);
            r.pop();
            p.remove(&v);
            x.insert(v);
        }
    }
}

/// Refine one `L2` equivalence class into its maximal-clique clusters.
/// `edges` is the global frequent-pair set. Returns one sub-class per
/// maximal clique of size ≥ 2 (smaller cliques generate no candidates).
pub fn clique_clusters(
    class: &EquivalenceClass,
    edges: &FxHashSet<(ItemId, ItemId)>,
) -> Vec<EquivalenceClass> {
    if class.size() < 2 {
        return Vec::new();
    }
    let graph = ClassGraph::build(&class.members, edges);
    graph
        .maximal_cliques()
        .into_iter()
        .filter(|c| c.len() >= 2)
        .map(|clique| EquivalenceClass {
            prefix: class.prefix.clone(),
            members: clique
                .into_iter()
                .map(|idx| class.members[idx].clone())
                .collect(),
        })
        .collect()
}

/// The Clique algorithm of \[18\] as the driver's per-class step: mine
/// each prefix class via its maximal cliques. The union over cliques
/// equals the prefix-class result, with fewer doomed candidates at the
/// cost of clique enumeration and overlap. The kernel counters add up
/// every clique's work, so a candidate shared by two cliques counts
/// twice.
#[derive(Default)]
pub struct Clique {
    /// The global frequent-pair set, learned from `L2`.
    edges: FxHashSet<(ItemId, ItemId)>,
}

impl ClassKernel for Clique {
    fn algorithm(&self) -> &'static str {
        "clique"
    }

    fn prepare(&mut self, l2: &[(ItemId, ItemId)]) {
        self.edges = l2.iter().copied().collect();
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
        pipeline::record_members(&class, out);
        // Overlapping cliques rediscover shared itemsets, with the same
        // supports; `out` keeps one copy.
        for sub in clique_clusters(&class, &self.edges) {
            pipeline::compute_class_stats(sub, threshold, cfg, meter, out, stats);
        }
    }
}

/// The Clique algorithm end to end (sizes ≥ 2): the three-phase
/// [`pipeline::run_stats_on`] driver on the [`Clique`] kernel, reporting
/// `"algorithm":"clique"`.
pub fn mine(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    threads: &Threads,
    variant: &str,
) -> (FrequentSet, MiningStats) {
    pipeline::run_stats_on(
        db,
        minsup,
        cfg,
        meter,
        threads,
        variant,
        &mut Clique::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Serial;
    use apriori::reference::random_db;
    use mining_types::Itemset;
    use tidlist::TidList;

    fn member(raw: &[u32], tids: &[u32]) -> ClassMember {
        ClassMember {
            itemset: Itemset::of(raw),
            tids: TidList::of(tids),
        }
    }

    fn edges(pairs: &[(u32, u32)]) -> FxHashSet<(ItemId, ItemId)> {
        pairs
            .iter()
            .map(|&(a, b)| (ItemId(a.min(b)), ItemId(a.max(b))))
            .collect()
    }

    #[test]
    fn clusters_split_a_broken_triangle() {
        // class [0] with members b ∈ {1,2,3}; edges 1-2 present, but
        // neither 1-3 nor 2-3 → cliques {1,2} and... {3} alone (dropped).
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: vec![
                member(&[0, 1], &[1]),
                member(&[0, 2], &[1]),
                member(&[0, 3], &[1]),
            ],
        };
        let e = edges(&[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let clusters = clique_clusters(&class, &e);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].size(), 2);
        let exts: Vec<u32> = clusters[0]
            .members
            .iter()
            .map(|m| m.itemset.items()[1].0)
            .collect();
        assert_eq!(exts, vec![1, 2]);
    }

    #[test]
    fn full_clique_stays_whole() {
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: (1..=4).map(|b| member(&[0, b], &[1])).collect(),
        };
        let mut all_pairs = vec![];
        for a in 0..=4u32 {
            for b in a + 1..=4 {
                all_pairs.push((a, b));
            }
        }
        let clusters = clique_clusters(&class, &edges(&all_pairs));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].size(), 4);
    }

    #[test]
    fn overlapping_cliques_are_enumerated() {
        // neighborhood graph: 1-2, 2-3, 1-3, 3-4, 4-5, 3-5 → cliques
        // {1,2,3} and {3,4,5}.
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: (1..=5).map(|b| member(&[0, b], &[1])).collect(),
        };
        let e = edges(&[
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (2, 3),
            (1, 3),
            (3, 4),
            (4, 5),
            (3, 5),
        ]);
        let clusters = clique_clusters(&class, &e);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].size(), 3);
        assert_eq!(clusters[1].size(), 3);
    }

    #[test]
    fn clique_mining_matches_sequential_eclat() {
        let cfg = EclatConfig::default();
        for seed in [0u64, 6, 21] {
            let db = random_db(seed, 200, 14, 6);
            for pct in [4.0, 10.0] {
                let minsup = MinSupport::from_percent(pct);
                let (via_cliques, _) = mine(
                    &db,
                    minsup,
                    &cfg,
                    &mut OpMeter::new(),
                    &Serial,
                    "sequential",
                );
                let reference = pipeline::run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
                assert_eq!(via_cliques, reference, "seed {seed} pct {pct}");
            }
        }
    }

    #[test]
    fn clique_clustering_generates_fewer_candidates() {
        // On sparse-ish data the tight clusters skip doomed joins.
        let db = random_db(17, 300, 14, 5);
        let minsup = MinSupport::from_percent(4.0);
        let cfg = EclatConfig::default();
        let mut m_clique = OpMeter::new();
        let mut m_prefix = OpMeter::new();
        let (a, stats) = mine(&db, minsup, &cfg, &mut m_clique, &Serial, "sequential");
        let b = pipeline::run(&db, minsup, &cfg, &mut m_prefix, &Serial);
        assert_eq!(a, b);
        assert!(
            m_clique.cand_gen <= m_prefix.cand_gen,
            "clique candidates {} vs prefix candidates {}",
            m_clique.cand_gen,
            m_prefix.cand_gen
        );
        // The clique kernel's work lands in the report: every generated
        // candidate is one join of some clique.
        assert_eq!(stats.algorithm, "clique");
        assert_eq!(stats.representation, pipeline::LABEL_AUTO);
        assert_eq!(stats.kernel_totals().joins, m_clique.cand_gen);
        assert!(stats.kernel_totals().frequent > 0);
        assert_eq!(stats.total_ops, m_clique);
    }

    #[test]
    fn empty_and_singleton_classes() {
        let e = edges(&[]);
        let empty = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: vec![],
        };
        assert!(clique_clusters(&empty, &e).is_empty());
        let single = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: vec![member(&[0, 1], &[1])],
        };
        assert!(clique_clusters(&single, &e).is_empty());
    }
}
