//! Loopback robustness: the failure modes ISSUE'd for the runtime.
//!
//! * handshake version mismatch is rejected with a diagnostic;
//! * a worker that dies (or goes silent) mid-exchange aborts the run
//!   at the coordinator — with a useful message and *without hanging*;
//! * truncated and oversized frames are answered and never wedge the
//!   worker;
//! * deposits for unknown run ids are rejected (cross-talk guard) and
//!   two concurrent runs with distinct run ids share a fleet cleanly.

use apriori::reference::random_db;
use dbstore::{binfmt, HorizontalDb};
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use eclat_net::proto::{Message, MAX_NET_FRAME, PROTOCOL_VERSION};
use eclat_net::{mine_distributed, start_worker, DistConfig, NetError, WorkerConfig};
use mining_types::{FrequentSet, MinSupport, OpMeter};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;
use wire::{read_frame, write_frame, Frame};

/// Sequential Eclat with the default config.
fn sequential_eclat(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    let cfg = EclatConfig::default();
    eclat::pipeline::run(db, minsup, &cfg, &mut OpMeter::new(), &Serial)
}

fn send_msg(stream: &mut TcpStream, msg: &Message) {
    write_frame(stream, &msg.encode()).unwrap();
}

fn recv_msg(stream: &mut TcpStream) -> Message {
    match read_frame(stream, MAX_NET_FRAME).unwrap() {
        Frame::Payload(p) => Message::decode(&p).unwrap(),
        other => panic!("expected a payload frame, got {other:?}"),
    }
}

fn fast_worker_config() -> WorkerConfig {
    WorkerConfig {
        io_timeout: Duration::from_secs(5),
        exchange_timeout: Duration::from_secs(2),
        ..WorkerConfig::default()
    }
}

fn fast_dist_config() -> DistConfig {
    DistConfig {
        io_timeout: Duration::from_secs(30),
        ..DistConfig::default()
    }
}

#[test]
fn version_mismatch_is_rejected() {
    let worker = start_worker(&WorkerConfig::default()).unwrap();
    let mut s = TcpStream::connect(worker.addr()).unwrap();
    send_msg(
        &mut s,
        &Message::Hello {
            version: PROTOCOL_VERSION + 7,
            run_id: 42,
            rank: 0,
            num_workers: 1,
        },
    );
    match recv_msg(&mut s) {
        Message::Abort {
            run_id, message, ..
        } => {
            assert_eq!(run_id, 42);
            assert!(message.contains("version mismatch"), "{message}");
        }
        other => panic!("expected Abort, got {other:?}"),
    }
}

#[test]
fn duplicate_run_id_is_refused() {
    let worker = start_worker(&WorkerConfig::default()).unwrap();
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
        run_id: 77,
        rank: 0,
        num_workers: 1,
    };
    let mut first = TcpStream::connect(worker.addr()).unwrap();
    send_msg(&mut first, &hello);
    assert!(matches!(
        recv_msg(&mut first),
        Message::HelloAck { run_id: 77 }
    ));

    let mut second = TcpStream::connect(worker.addr()).unwrap();
    send_msg(&mut second, &hello);
    match recv_msg(&mut second) {
        Message::Abort { message, .. } => assert!(message.contains("already active"), "{message}"),
        other => panic!("expected Abort, got {other:?}"),
    }
}

#[test]
fn plan_pairs_outside_the_block_are_rejected() {
    // Each plan must be refused with a diagnostic before the worker
    // places tids by it: an item beyond the block's universe, an
    // unordered pair, and pairs out of ascending order.
    let db = random_db(2, 40, 8, 4);
    let mut block = Vec::new();
    binfmt::write_horizontal(&db, &mut block).unwrap();
    let bad_plans = [vec![(0, 8)], vec![(3, 1)], vec![(1, 2), (0, 1)]];
    let worker = start_worker(&fast_worker_config()).unwrap();
    for (run_id, l2) in (500..).zip(bad_plans) {
        let mut s = TcpStream::connect(worker.addr()).unwrap();
        let hello = Message::Hello {
            version: PROTOCOL_VERSION,
            run_id,
            rank: 0,
            num_workers: 1,
        };
        send_msg(&mut s, &hello);
        assert!(matches!(recv_msg(&mut s), Message::HelloAck { .. }));
        let assign = Message::Assign {
            run_id,
            threshold: 1,
            tid_offset: 0,
            flags: 0,
            block: block.clone(),
        };
        send_msg(&mut s, &assign);
        assert!(matches!(recv_msg(&mut s), Message::Counts { .. }));
        let plan = Message::Plan {
            run_id,
            slot_owner: vec![0; l2.len()],
            l2: l2.clone(),
            peers: vec![worker.addr().to_string()],
        };
        send_msg(&mut s, &plan);
        match recv_msg(&mut s) {
            Message::Abort { message, .. } => {
                assert!(message.contains("plan pairs"), "{l2:?}: {message}")
            }
            other => panic!("{l2:?}: expected Abort, got {other:?}"),
        }
    }
}

#[test]
fn partials_for_unknown_run_are_rejected() {
    let worker = start_worker(&WorkerConfig::default()).unwrap();
    let mut s = TcpStream::connect(worker.addr()).unwrap();
    send_msg(
        &mut s,
        &Message::Partials {
            run_id: 0xDEAD,
            from_rank: 3,
            entries: vec![(0, vec![1, 2, 3])],
        },
    );
    match recv_msg(&mut s) {
        Message::Abort { message, .. } => assert!(message.contains("no active run"), "{message}"),
        other => panic!("expected Abort, got {other:?}"),
    }
}

#[test]
fn malformed_frames_get_a_diagnostic_and_the_worker_survives() {
    let worker = start_worker(&fast_worker_config()).unwrap();

    // Oversized: announced length beyond the limit.
    let mut s = TcpStream::connect(worker.addr()).unwrap();
    s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
    match recv_msg(&mut s) {
        Message::Abort { message, .. } => assert!(message.contains("bad first frame"), "{message}"),
        other => panic!("expected Abort, got {other:?}"),
    }
    drop(s);

    // Truncated: header promises 100 bytes, peer hangs up after 3.
    let mut s = TcpStream::connect(worker.addr()).unwrap();
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[1, 2, 3]).unwrap();
    drop(s);

    // Undecodable payload (unknown opcode).
    let mut s = TcpStream::connect(worker.addr()).unwrap();
    write_frame(&mut s, &[0xEE, 1, 2]).unwrap();
    match recv_msg(&mut s) {
        Message::Abort { message, .. } => assert!(message.contains("opcode"), "{message}"),
        other => panic!("expected Abort, got {other:?}"),
    }
    drop(s);

    // After all that abuse the worker still mines correctly.
    let db = random_db(5, 80, 12, 5);
    let minsup = MinSupport::from_percent(5.0);
    let report = mine_distributed(
        &db,
        minsup,
        &[worker.addr().to_string()],
        &fast_dist_config(),
    )
    .unwrap();
    assert_eq!(report.frequent, sequential_eclat(&db, minsup));
}

/// A scripted fake worker: handshakes, answers `Counts`, acknowledges
/// incoming `Partials` — but never sends its own partials and never
/// finishes. Drives the real workers into their exchange deadline.
fn spawn_zombie() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        // First connection: the coordinator session.
        let (mut coord, _) = listener.accept().unwrap();
        coord
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let run_id = match recv_msg(&mut coord) {
            Message::Hello { run_id, .. } => run_id,
            other => panic!("zombie expected Hello, got {other:?}"),
        };
        send_msg(&mut coord, &Message::HelloAck { run_id });
        let num_items = match recv_msg(&mut coord) {
            Message::Assign { block, .. } => {
                let (db, _) = binfmt::read_horizontal(&mut &block[..]).unwrap();
                db.num_items() as usize
            }
            other => panic!("zombie expected Assign, got {other:?}"),
        };
        send_msg(
            &mut coord,
            &Message::Counts {
                run_id,
                num_items: num_items as u32,
                triangle: vec![0; num_items * (num_items - 1) / 2],
                items: vec![],
            },
        );
        let _plan = recv_msg(&mut coord); // Plan arrives...
                                          // ...and the zombie goes silent toward the run, except for
                                          // acking peer partials so the real workers genuinely reach
                                          // their inbox wait (and time out there, not on the ack).
        loop {
            let Ok((mut peer, _)) = listener.accept() else {
                break;
            };
            peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            if let Ok(Frame::Payload(p)) = read_frame(&mut peer, MAX_NET_FRAME) {
                if let Ok(Message::Partials { run_id, .. }) = Message::decode(&p) {
                    send_msg(&mut peer, &Message::PartialsAck { run_id });
                }
            }
        }
    });
    (addr, handle)
}

#[test]
fn worker_silent_in_exchange_aborts_the_run_without_hanging() {
    let w0 = start_worker(&fast_worker_config()).unwrap();
    let w1 = start_worker(&fast_worker_config()).unwrap();
    let (zombie_addr, _zombie) = spawn_zombie();

    let db = random_db(11, 90, 14, 6);
    let addrs = vec![
        w0.addr().to_string(),
        w1.addr().to_string(),
        zombie_addr.to_string(),
    ];
    let err = mine_distributed(
        &db,
        MinSupport::from_percent(4.0),
        &addrs,
        &fast_dist_config(),
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("exchange timed out") || msg.contains("stalled"),
        "unexpected diagnostic: {msg}"
    );

    // The surviving workers are reusable for a fresh run immediately.
    let minsup = MinSupport::from_percent(5.0);
    let report = mine_distributed(&db, minsup, &addrs[..2], &fast_dist_config()).unwrap();
    assert_eq!(report.frequent, sequential_eclat(&db, minsup));
}

#[test]
fn worker_death_after_handshake_aborts_with_a_diagnostic() {
    let w0 = start_worker(&fast_worker_config()).unwrap();
    // A "worker" that accepts the session and immediately dies.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        if let Message::Hello { run_id, .. } = recv_msg(&mut s) {
            send_msg(&mut s, &Message::HelloAck { run_id });
        }
        // Drop everything: connection closes mid-run.
    });

    let db = random_db(3, 60, 10, 5);
    let err = mine_distributed(
        &db,
        MinSupport::from_percent(5.0),
        &[w0.addr().to_string(), dead_addr.to_string()],
        &fast_dist_config(),
    )
    .unwrap_err();
    match &err {
        NetError::Worker { rank, message } => {
            assert_eq!(*rank, 1, "{message}");
            assert!(
                message.contains("closed")
                    || message.contains("died")
                    || message.contains("failed"),
                "{message}"
            );
        }
        other => panic!("expected a Worker error, got {other:?}"),
    }
    t.join().unwrap();
}

#[test]
fn concurrent_runs_with_distinct_ids_share_a_fleet() {
    let w0 = start_worker(&WorkerConfig::default()).unwrap();
    let w1 = start_worker(&WorkerConfig::default()).unwrap();
    let addrs = vec![w0.addr().to_string(), w1.addr().to_string()];

    let db_a = random_db(21, 100, 14, 6);
    let db_b = random_db(99, 130, 12, 5);
    let minsup = MinSupport::from_percent(5.0);

    let (addrs_a, addrs_b) = (addrs.clone(), addrs.clone());
    let ta = std::thread::spawn(move || {
        let dist = DistConfig {
            run_id: Some(0xAAAA),
            ..DistConfig::default()
        };
        mine_distributed(&db_a, minsup, &addrs_a, &dist).map(|r| r.frequent)
    });
    let tb = std::thread::spawn(move || {
        let dist = DistConfig {
            run_id: Some(0xBBBB),
            ..DistConfig::default()
        };
        mine_distributed(&db_b, minsup, &addrs_b, &dist).map(|r| r.frequent)
    });
    let fa = ta.join().unwrap().unwrap();
    let fb = tb.join().unwrap().unwrap();

    let db_a = random_db(21, 100, 14, 6);
    let db_b = random_db(99, 130, 12, 5);
    assert_eq!(fa, sequential_eclat(&db_a, minsup));
    assert_eq!(fb, sequential_eclat(&db_b, minsup));
    assert_ne!(fa, fb, "the two runs mined different databases");
}

#[test]
fn worker_stats_measure_the_run() {
    let worker_cfgs: Vec<_> = (0..2)
        .map(|_| start_worker(&WorkerConfig::default()).unwrap())
        .collect();
    let addrs: Vec<String> = worker_cfgs.iter().map(|w| w.addr().to_string()).collect();
    let db = random_db(7, 200, 14, 6);
    let minsup = MinSupport::from_percent(3.0);
    let report = mine_distributed(&db, minsup, &addrs, &DistConfig::default()).unwrap();
    let stats = report.stats;

    // Measured phases in paper order.
    let labels: Vec<&str> = stats.phases.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(labels, vec!["init", "transform", "async", "reduce"]);
    assert!(stats.phases[0].ops.pair_incr > 0, "init counted pairs");
    assert!(stats.phases[2].ops.tid_cmp > 0, "async ran joins");

    // The cluster section carries real per-worker measurements.
    let cluster = stats.cluster.as_ref().expect("dist cluster section");
    assert_eq!(cluster.procs.len(), 2);
    for p in &cluster.procs {
        assert!(p.bytes_sent > 0, "worker {} sent frames", p.proc);
        assert!(p.bytes_received > 0, "worker {} received frames", p.proc);
        assert!(p.finish_secs > 0.0);
        assert!(p.compute_secs >= 0.0 && p.idle_secs >= 0.0 && p.net_secs >= 0.0);
    }
    assert!(cluster.load_imbalance >= 1.0);
    assert!(cluster.total_secs > 0.0);

    // Op totals match a sequential run of the same mining work.
    let mut meter = mining_types::OpMeter::new();
    let (oracle, seq_stats) = eclat::pipeline::run_stats(
        &db,
        minsup,
        &eclat::EclatConfig::default(),
        &mut meter,
        &eclat::pipeline::Serial,
        "sequential",
    );
    assert_eq!(report.frequent, oracle);
    assert_eq!(stats.num_frequent, seq_stats.num_frequent);
    assert_eq!(stats.levels, seq_stats.levels);
    assert_eq!(stats.classes, seq_stats.classes);
    assert_eq!(stats.kernel_totals(), seq_stats.kernel_totals());
    // Pair counting splits across blocks but sums to the same work.
    assert_eq!(
        stats.phases[0].ops.pair_incr,
        seq_stats.phases[0].ops.pair_incr
    );
}
