//! **Eclat** — the paper's contribution: localized (parallel) association
//! mining via equivalence-class clustering and vertical tid-list
//! intersections.
//!
//! One generic recursive kernel ([`compute::compute_frequent_stats`],
//! Figure 3 of the paper) serves every variant. It is parameterized over
//! the members' vertical representation ([`tidlist::TidSet`]), and the
//! representation is not a setting: the measured runs mine each class on
//! fixed-width bitmaps when its tid density reaches a fixed threshold
//! and on d-Eclat diffsets (the paper's §9 memory future work) otherwise
//! ([`pipeline::compute_class_stats`]); the simulated [`cluster`] and
//! [`hybrid`] variants mine the paper's plain tid-lists, whose
//! comparisons their cost model prices. All pairwise candidate
//! generation funnels through one loop (`compute::join_level`), so
//! operation metering is comparable across variants and representations.
//!
//! There is one three-phase driver, [`pipeline::run_stats_on`] (§7's
//! three scans: initialization/`L2` counting → vertical transformation →
//! asynchronous per-class mining, plus an optional reduce step), on an
//! [`executor::Threads`] pool: [`pipeline::Serial`] is the paper's
//! sequential algorithm (§5 specialized to one processor) and
//! `Threads::new(0)` the shared-memory parallel one, where classes are
//! independent (§4.1) and every core pulls the heaviest class still
//! waiting. Miners differ only in the per-class step, a
//! [`pipeline::ClassKernel`]:
//!
//! * [`pipeline::Eclat`] — every frequent itemset ([`pipeline::run`],
//!   [`pipeline::run_stats`]);
//! * [`pipeline::PaperTidLists`] — the same on the paper's tid-lists
//!   ([`pipeline::run_tidlist_stats`]);
//! * [`clique::Clique`] — maximal-clique itemset clustering from the
//!   paper's reference \[18\] ([`clique::mine`]);
//! * [`maximal::MaxEclat`] — maximal frequent itemsets with look-ahead,
//!   also from \[18\] ([`maximal::mine`]).
//!
//! The simulated drivers compose the pipeline's phase helpers around
//! the cost model instead:
//!
//! * [`cluster`] — the paper's distributed algorithm, phase for phase
//!   (Figure 2: initialization / transformation / asynchronous / final
//!   reduction), around the simulated DEC Memory Channel cluster of the
//!   [`memchannel`] crate, producing both the mining result and a virtual
//!   [`memchannel::Timeline`];
//! * [`hybrid`] — the future-work extension of §8.1/§9: the database is
//!   partitioned among *hosts* only and processors within a host share
//!   the class queue, eliminating intra-host disk contention.
//!
//! Supporting modules: [`equivalence`] (prefix-class partitioning, §4.1,
//! generic over the representation), [`schedule`] (greedy least-loaded
//! class scheduling with `C(s,2)` weights, §5.2.1), [`executor`] (the
//! one in-process parallel executor — weighted independent tasks pulled
//! heaviest-first, results in task order, reused by the `eclat-seq`
//! sequence miner, the streaming engine and the distributed worker),
//! and [`transform`] (horizontal → vertical transformation with §6.3's
//! offset placement).

pub mod clique;
pub mod cluster;
pub mod compute;
pub mod equivalence;
pub mod executor;
pub mod hybrid;
pub mod maximal;
pub mod pipeline;
pub mod schedule;
pub mod transform;

pub use compute::EclatConfig;
pub use executor::Threads;
pub use schedule::ScheduleHeuristic;
