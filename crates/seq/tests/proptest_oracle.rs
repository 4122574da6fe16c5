//! SPADE ≡ reference on random databases: the vertical kernel is pinned
//! against the GSP-style horizontal miner, which shares no code with it
//! (no PairSet, no joins, no classes) — agreement is evidence, not
//! tautology. The same random databases also pin thread-count equivalence and
//! support monotonicity.

use eclat::pipeline::{Serial, Threads};
use eclat_seq::{mine_stats, reference, FrequentSequences, SeqConfig, SeqDb};
use mining_types::{MinSupport, OpMeter};
use proptest::prelude::*;

fn spade(db: &SeqDb, minsup: MinSupport) -> FrequentSequences {
    spade_with(
        db,
        minsup,
        &SeqConfig::default(),
        &mut OpMeter::new(),
        &Serial,
    )
}

fn spade_with(
    db: &SeqDb,
    minsup: MinSupport,
    cfg: &SeqConfig,
    meter: &mut OpMeter,
    threads: &Threads,
) -> FrequentSequences {
    mine_stats(db, minsup, cfg, meter, threads, "sequential").0
}

/// Random sequence database: up to 14 sequences of up to 8 events over
/// a 10-item alphabet. Events are normalized (sorted, deduped) and
/// empty events dropped, matching what a real loader produces.
fn raw_db() -> impl Strategy<Value = Vec<Vec<(u32, Vec<u32>)>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0u32..10, 1..4), 0..8),
        0..14,
    )
    .prop_map(|seqs| {
        seqs.into_iter()
            .map(|events| {
                events
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, mut items)| {
                        items.sort_unstable();
                        items.dedup();
                        (!items.is_empty()).then_some((i as u32 + 1, items))
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spade_matches_the_reference_miner(raw in raw_db(), pct in 5.0f64..80.0) {
        let db = SeqDb::from_events(raw);
        let minsup = MinSupport::from_percent(pct);
        let spade = spade(&db, minsup);
        let oracle = reference::mine_reference(&db, minsup, None);
        prop_assert_eq!(spade, oracle);
    }

    #[test]
    fn maxlen_cap_matches_the_reference_miner(raw in raw_db(), maxlen in 1u32..5) {
        let db = SeqDb::from_events(raw);
        let minsup = MinSupport::from_percent(20.0);
        let cfg = SeqConfig { maxlen: Some(maxlen), ..SeqConfig::default() };
        let spade = spade_with(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
        let oracle = reference::mine_reference(&db, minsup, Some(maxlen));
        prop_assert_eq!(spade, oracle);
    }

    #[test]
    fn thread_counts_agree_on_random_databases(raw in raw_db(), pct in 5.0f64..60.0, procs in 1usize..5) {
        let db = SeqDb::from_events(raw);
        let minsup = MinSupport::from_percent(pct);
        let cfg = SeqConfig::default();
        let mut m_serial = OpMeter::new();
        let expect = spade_with(&db, minsup, &cfg, &mut m_serial, &Serial);
        for p in [procs, 8] {
            let mut m_threads = OpMeter::new();
            prop_assert_eq!(
                &spade_with(&db, minsup, &cfg, &mut m_threads, &Threads::new(p)),
                &expect
            );
            prop_assert_eq!(m_threads, m_serial);
        }
    }

    #[test]
    fn support_is_monotone_in_minsup(raw in raw_db()) {
        let db = SeqDb::from_events(raw);
        let lo = spade(&db, MinSupport::from_percent(10.0));
        let hi = spade(&db, MinSupport::from_percent(50.0));
        prop_assert!(hi.len() <= lo.len());
        for (p, &s) in &hi {
            prop_assert_eq!(lo.get(p), Some(&s), "{} changed support", p);
        }
    }

    #[test]
    fn every_reported_support_is_a_true_containment_count(raw in raw_db()) {
        let db = SeqDb::from_events(raw);
        let fs = spade(&db, MinSupport::from_percent(25.0));
        for (p, &s) in &fs {
            prop_assert_eq!(reference::support_of(&db, p), s, "{}", p);
        }
    }
}
