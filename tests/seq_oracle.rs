//! SPADE in the tier-1 suite: a small generated sequence database mined
//! with `eclat_seq::mine_stats` on one thread and on two must equal the
//! GSP-style reference miner, which shares no code with the kernel.

use eclat::pipeline::{Serial, Threads};
use eclat_seq::{mine_stats, reference, SeqConfig, SeqDb};
use mining_types::{MinSupport, OpMeter};
use questgen::{SeqGenerator, SeqParams};

#[test]
fn spade_matches_the_reference_serial_and_threaded() {
    let raw = SeqGenerator::new(SeqParams::tiny(60, 11)).generate_all_raw();
    let db = SeqDb::from_events(raw);
    let cfg = SeqConfig::default();
    for pct in [10.0, 20.0] {
        let minsup = MinSupport::from_percent(pct);
        let oracle = reference::mine_reference(&db, minsup, None);
        assert!(
            oracle.keys().any(|p| p.len_items() >= 3),
            "{pct}%: the oracle must reach past 2-sequences"
        );
        let mut m_serial = OpMeter::new();
        let (serial, stats) = mine_stats(&db, minsup, &cfg, &mut m_serial, &Serial, "sequential");
        assert_eq!(serial, oracle, "{pct}% serial");
        assert_eq!(stats.algorithm, "spade");
        assert_eq!(stats.num_frequent, oracle.len() as u64);
        let mut m_threads = OpMeter::new();
        let (threaded, _) = mine_stats(
            &db,
            minsup,
            &cfg,
            &mut m_threads,
            &Threads::new(2),
            "threads",
        );
        assert_eq!(threaded, oracle, "{pct}% on two threads");
        assert_eq!(m_threads, m_serial, "{pct}%: merged meters equal serial");
    }
}
