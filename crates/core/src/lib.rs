//! **Eclat** — the paper's contribution: localized (parallel) association
//! mining via equivalence-class clustering and vertical tid-list
//! intersections.
//!
//! One generic recursive kernel ([`compute::compute_frequent`], Figure 3
//! of the paper) serves every variant. It is parameterized over the
//! members' vertical representation ([`tidlist::TidSet`]), and the
//! representation is not a setting: the measured drivers mine each
//! class on fixed-width bitmaps when its tid density reaches a fixed
//! threshold and on d-Eclat diffsets (the paper's §9 memory future work)
//! otherwise ([`pipeline::compute_class_stats`]); the simulated [`cluster`]
//! and [`hybrid`] variants mine the paper's plain tid-lists, whose
//! comparisons their cost model prices. All pairwise candidate
//! generation funnels through one loop (`compute::join_level`), so
//! operation metering is comparable across variants and representations.
//!
//! The drivers share the three-phase [`pipeline`] (§7's three scans:
//! initialization/`L2` counting → vertical transformation → asynchronous
//! per-class mining), run on an [`executor::Threads`] pool:
//!
//! * [`sequential`] — the pipeline on the one-thread
//!   [`pipeline::Serial`] pool (§5, specialized to one processor);
//!   `pipeline::run` on `Threads::new(0)` is the shared-memory parallel
//!   variant: classes are independent (§4.1), so every core pulls the
//!   heaviest class still waiting — the API a downstream user wants on a
//!   modern multicore box;
//! * [`cluster`] — the paper's distributed algorithm, phase for phase
//!   (Figure 2: initialization / transformation / asynchronous / final
//!   reduction), composing the pipeline's phase helpers around the
//!   simulated DEC Memory Channel cluster of the [`memchannel`] crate,
//!   producing both the mining result and a virtual
//!   [`memchannel::Timeline`];
//! * [`hybrid`] — the future-work extension of §8.1/§9: the database is
//!   partitioned among *hosts* only and processors within a host share
//!   the class queue, eliminating intra-host disk contention.
//!
//! Companion algorithms from the paper's reference \[18\]: [`clique`]
//! (maximal-clique itemset clustering) and [`maximal`] (MaxEclat with
//! look-ahead for maximal frequent itemsets) — both reuse the shared
//! kernel loop for their pairwise joins.
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
pub mod sequential;
pub mod transform;

pub use compute::EclatConfig;
pub use executor::Threads;
pub use schedule::ScheduleHeuristic;
