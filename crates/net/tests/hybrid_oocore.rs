//! Hybrid (W x P) and out-of-core workers: golden equivalence + the
//! per-thread accounting invariant.
//!
//! The tentpole claims for the worker-as-host runtime, pinned:
//!
//! * `dmine(W x P)` returns exactly the sequential miner's frequent
//!   set — on a sparse database (every class mined on
//!   diffsets) and a dense one (every class on bitmaps), with spill off
//!   (generous budget) and with spill forced on every class (budget 0);
//! * a budget-0 run actually moves bytes through the out-of-core store
//!   and faults every one of them back (`read == written > 0`);
//! * the measured `cluster` section carries one processor row per
//!   worker *thread*, and every row satisfies
//!   `compute + disk + net + idle <= wall` with all terms
//!   non-negative — the idle-accounting regression the simulator's
//!   schema promises.

use apriori::reference::random_db;
use dbstore::HorizontalDb;
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use eclat_net::{mine_distributed, start_worker, DistConfig, WorkerConfig};
use mining_types::{MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};

fn hybrid_workers(w: usize, p: usize, mem_budget: Option<u64>) -> Vec<eclat_net::WorkerHandle> {
    (0..w)
        .map(|_| {
            start_worker(&WorkerConfig {
                threads: p,
                mem_budget,
                ..WorkerConfig::default()
            })
            .expect("start worker")
        })
        .collect()
}

fn addrs_of(workers: &[eclat_net::WorkerHandle]) -> Vec<String> {
    workers.iter().map(|w| w.addr().to_string()).collect()
}

#[test]
fn hybrid_and_spilled_runs_match_sequential_on_both_kernels() {
    let sparse = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::t10_i6(3_000).with_seed(5)).generate_all(),
    );
    // The `eclat` pipeline tests pin both inputs to their side of the
    // per-class kernel choice.
    let dense = random_db(4, 250, 12, 6);
    let inputs = [("sparse", sparse, 0.5), ("dense", dense, 5.0)];
    for (label, db, pct) in inputs {
        let minsup = MinSupport::from_percent(pct);
        let oracle = eclat::pipeline::run(
            &db,
            minsup,
            &EclatConfig::default(),
            &mut OpMeter::new(),
            &Serial,
        );
        for budget in [None, Some(0)] {
            let workers = hybrid_workers(2, 2, budget);
            let report = mine_distributed(&db, minsup, &addrs_of(&workers), &DistConfig::default())
                .unwrap_or_else(|e| panic!("{label} budget {budget:?}: {e}"));
            assert_eq!(
                report.frequent, oracle,
                "{label} budget {budget:?} diverged from sequential"
            );
            match budget {
                // Budget 0: every class spills and every class faults
                // back, so the two byte counters agree and are nonzero.
                Some(0) => {
                    assert!(
                        report.spill_bytes_written > 0,
                        "{label}: zero budget must spill"
                    );
                    assert_eq!(
                        report.spill_bytes_read, report.spill_bytes_written,
                        "{label}: every spilled byte is read back exactly once"
                    );
                }
                _ => {
                    assert_eq!(report.spill_bytes_written, 0, "{label}: no spill expected");
                    assert_eq!(report.spill_bytes_read, 0);
                }
            }
        }
    }
}

#[test]
fn cluster_reports_one_row_per_thread_with_consistent_idle() {
    let db = random_db(23, 400, 14, 6);
    let minsup = MinSupport::from_percent(2.0);
    let (w, p) = (2usize, 3usize);
    // A tiny (but nonzero) budget exercises the spill path so disk time
    // can show up in the rows it is attributed to.
    let workers = hybrid_workers(w, p, Some(1024));
    let report = mine_distributed(&db, minsup, &addrs_of(&workers), &DistConfig::default())
        .expect("hybrid run");
    let cluster = report.stats.cluster.expect("dist cluster section");

    assert_eq!(
        cluster.procs.len(),
        w * p,
        "one processor row per worker thread"
    );
    let eps = 1e-9;
    for row in &cluster.procs {
        assert!(row.compute_secs >= 0.0, "proc {}", row.proc);
        assert!(row.disk_secs >= 0.0, "proc {}", row.proc);
        assert!(row.net_secs >= 0.0, "proc {}", row.proc);
        assert!(row.idle_secs >= 0.0, "derived idle is clamped");
        assert!(row.finish_secs > 0.0, "proc {}", row.proc);
        // The invariant the idle fix restores: accounted time never
        // exceeds the worker's wall clock.
        assert!(
            row.compute_secs + row.disk_secs + row.net_secs + row.idle_secs
                <= row.finish_secs + eps,
            "proc {}: {} + {} + {} + {} > {}",
            row.proc,
            row.compute_secs,
            row.disk_secs,
            row.net_secs,
            row.idle_secs,
            row.finish_secs
        );
    }
    // Row ids are sequential across the whole fleet.
    let ids: Vec<u64> = cluster.procs.iter().map(|r| r.proc).collect();
    assert_eq!(ids, (0..(w * p) as u64).collect::<Vec<_>>());
    // Session-thread serial work and the network live on each worker's
    // first row; the fleet as a whole moved real bytes.
    let total_sent: u64 = cluster.procs.iter().map(|r| r.bytes_sent).sum();
    assert!(total_sent > 0, "exchange moved bytes");
}
