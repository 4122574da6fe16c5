//! The worker process: one TCP listener serving mining sessions.
//!
//! A worker is passive — it binds, accepts, and lets coordinators drive.
//! Each accepted connection is classified by its first frame:
//!
//! * [`Message::Hello`] opens a *session*: the connection thread runs the
//!   paper's worker-side phases end to end (counting → exchange →
//!   asynchronous mining → result) against that coordinator;
//! * [`Message::Partials`] is a peer deposit for an in-flight run: the
//!   payload is dropped into the run's `Inbox` and acknowledged;
//! * anything else gets a best-effort [`Message::Abort`], then close.
//!
//! Sessions and deposits meet at the `Registry`: a map from `run_id`
//! to the run's inbox, created at `Hello` and removed when the session
//! ends. Unknown-run deposits are rejected (the cross-talk guard for
//! concurrent runs sharing a fleet), duplicate `run_id`s refused, and
//! the exchange wait is deadline-bounded so a dead peer aborts the run
//! instead of hanging it.

use crate::exchange::{assemble, route_partials, Entries};
use crate::proto::{Message, WorkerStats, MAX_NET_FRAME, PROTOCOL_VERSION};
use crate::NetError;
use dbstore::{binfmt, SpillMetrics, SpillStore};
use eclat::equivalence::{classes_of_l2, ClassMember, EquivalenceClass};
use eclat::pipeline::{self, Threads};
use eclat::schedule::class_weights;
use eclat::transform::count_items;
use mining_types::stats::ClassStats;
use mining_types::{FrequentSet, ItemId, Itemset, OpMeter};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tidlist::TidList;
use wire::{read_frame, write_frame, Frame};

/// Worker construction knobs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub listen: String,
    /// Per-socket read/write deadline for session traffic. Also bounds
    /// how long a worker waits for the coordinator's next instruction.
    pub io_timeout: Duration,
    /// How long the exchange waits for every peer's partials before the
    /// run is aborted.
    pub exchange_timeout: Duration,
    /// Connect attempts (beyond the first) when dialing a peer.
    pub connect_retries: u32,
    /// Initial backoff between peer connect attempts (doubles each try).
    pub connect_backoff: Duration,
    /// Mining threads per session — the `P` of the paper's H×P hybrid
    /// model, applied to a real host. `0` means one thread per available
    /// core; `1` (the default) reproduces the old single-threaded worker.
    pub threads: usize,
    /// Resident-byte budget for the post-exchange tid-lists. `None`
    /// keeps everything in memory; `Some(b)` routes the owned classes
    /// through a [`SpillStore`], so classes beyond `b` bytes live on
    /// disk until their turn in the class loop (three-scan style).
    pub mem_budget: Option<u64>,
    /// Directory for spill files (a unique per-run subdirectory is
    /// created inside it). Defaults to the system temp directory.
    pub spill_dir: Option<PathBuf>,
    /// Record an execution trace (`eclat_obs::trace` JSONL) and append
    /// it to this path when each session ends. Enables the process-wide
    /// tracer and tags events with the session's run id and rank, so
    /// per-worker files merge into one cluster timeline. Intended for
    /// one traced session at a time (e.g. `--spawn-local` fleets).
    pub trace: Option<PathBuf>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            listen: "127.0.0.1:0".to_string(),
            io_timeout: Duration::from_secs(120),
            exchange_timeout: Duration::from_secs(30),
            connect_retries: 5,
            connect_backoff: Duration::from_millis(20),
            threads: 1,
            mem_budget: None,
            spill_dir: None,
            trace: None,
        }
    }
}

/// A class stripped of its tid-lists: prefix + member itemsets, the
/// small resident part of a spilled class.
type ClassSkeleton = (Itemset, Vec<Itemset>);

/// Where the asynchronous phase gets its classes: straight from memory,
/// or faulted back from a [`SpillStore`] (out-of-core mode). Either way
/// each class is fetched exactly once, by the thread that mines it.
enum ClassSource {
    Resident(Vec<Mutex<Option<EquivalenceClass>>>),
    Spilled {
        /// The budgeted store holding every class's tid-lists.
        vault: Mutex<SpillStore>,
        /// Resident per-class metadata — the part that never spills.
        skeletons: Vec<Mutex<Option<ClassSkeleton>>>,
    },
}

impl ClassSource {
    fn fetch(&self, i: usize) -> Result<EquivalenceClass, String> {
        match self {
            ClassSource::Resident(slots) => Ok(slots[i]
                .lock()
                .expect("class slot poisoned")
                .take()
                .expect("each class is fetched exactly once")),
            ClassSource::Spilled { vault, skeletons } => {
                let lists = vault
                    .lock()
                    .expect("spill store poisoned")
                    .take(i)
                    .map_err(|e| format!("spill fault for class {i}: {e}"))?;
                let (prefix, itemsets) = skeletons[i]
                    .lock()
                    .expect("skeleton slot poisoned")
                    .take()
                    .expect("each class is fetched exactly once");
                Ok(EquivalenceClass {
                    prefix,
                    members: itemsets
                        .into_iter()
                        .zip(lists)
                        .map(|(itemset, tids)| ClassMember { itemset, tids })
                        .collect(),
                })
            }
        }
    }

    /// Final I/O counters (zero for the resident source).
    fn metrics(&self) -> SpillMetrics {
        match self {
            ClassSource::Resident(_) => SpillMetrics::default(),
            ClassSource::Spilled { vault, .. } => {
                vault.lock().expect("spill store poisoned").metrics()
            }
        }
    }
}

/// Deposited partials for one run, waiting for the owning session.
struct Inbox {
    state: Mutex<InboxState>,
    arrived: Condvar,
    /// Frame bytes deposited by peers (accounted to the session's
    /// receive counter — deposits land on accept threads, not on the
    /// session thread).
    bytes_received: AtomicU64,
}

#[derive(Default)]
struct InboxState {
    deposits: BTreeMap<u32, Entries>,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            state: Mutex::new(InboxState::default()),
            arrived: Condvar::new(),
            bytes_received: AtomicU64::new(0),
        }
    }

    fn deposit(&self, rank: u32, entries: Entries, frame_bytes: u64) {
        self.bytes_received
            .fetch_add(frame_bytes, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        st.deposits.insert(rank, entries);
        self.arrived.notify_all();
    }

    /// Block until all `num_workers` ranks have deposited, or `deadline`
    /// passes. Returns the deposits, or the missing ranks on timeout.
    fn wait_all(
        &self,
        num_workers: u32,
        deadline: Instant,
    ) -> Result<BTreeMap<u32, Entries>, Vec<u32>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.deposits.len() as u32 == num_workers {
                return Ok(std::mem::take(&mut st.deposits));
            }
            let now = Instant::now();
            if now >= deadline {
                let missing = (0..num_workers)
                    .filter(|r| !st.deposits.contains_key(r))
                    .collect();
                return Err(missing);
            }
            let (guard, _) = self.arrived.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }
}

/// Live runs on this worker, keyed by `run_id`.
#[derive(Default)]
struct Registry {
    inboxes: Mutex<HashMap<u64, Arc<Inbox>>>,
}

impl Registry {
    /// Create the inbox for a new run. `None` if the run id is taken.
    fn register(&self, run_id: u64) -> Option<Arc<Inbox>> {
        let mut map = self.inboxes.lock().unwrap();
        if map.contains_key(&run_id) {
            return None;
        }
        let inbox = Arc::new(Inbox::new());
        map.insert(run_id, Arc::clone(&inbox));
        Some(inbox)
    }

    fn lookup(&self, run_id: u64) -> Option<Arc<Inbox>> {
        self.inboxes.lock().unwrap().get(&run_id).cloned()
    }

    fn unregister(&self, run_id: u64) {
        self.inboxes.lock().unwrap().remove(&run_id);
    }
}

/// Removes the run's inbox when the session ends, however it ends.
struct InboxGuard<'a> {
    registry: &'a Registry,
    run_id: u64,
}

impl Drop for InboxGuard<'_> {
    fn drop(&mut self) {
        self.registry.unregister(self.run_id);
    }
}

/// A running worker; [`WorkerHandle::shutdown`] (or drop) stops the
/// accept loop. Session threads finish their current run independently.
pub struct WorkerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// The bound address (resolves an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections and join the accept thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // nudge out of accept()
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `cfg.listen` and serve mining sessions until shutdown.
///
/// # Errors
/// Fails only on bind; everything after runs on spawned threads.
pub fn start_worker(cfg: &WorkerConfig) -> io::Result<WorkerHandle> {
    let listener = TcpListener::bind(cfg.listen.as_str())?;
    let addr = listener.local_addr()?;
    if cfg.trace.is_some() {
        eclat_obs::trace::set_enabled(true);
    }
    eclat_obs::log_info!("eclat-net", "worker listening on {addr}");
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(Registry::default());

    let accept_stop = Arc::clone(&stop);
    let cfg = cfg.clone();
    let accept_thread = std::thread::Builder::new()
        .name("eclat-net-accept".to_string())
        .spawn(move || {
            for incoming in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = incoming else { continue };
                let registry = Arc::clone(&registry);
                let cfg = cfg.clone();
                let _ = std::thread::Builder::new()
                    .name("eclat-net-conn".to_string())
                    .spawn(move || handle_connection(stream, &registry, &cfg));
            }
        })?;

    Ok(WorkerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Send one message and return the frame bytes written.
fn send(stream: &mut TcpStream, msg: &Message) -> io::Result<u64> {
    let payload = msg.encode();
    write_frame(stream, &payload)?;
    Ok(payload.len() as u64 + 4)
}

/// Read one message and return it with the frame bytes read.
fn recv(stream: &mut TcpStream) -> Result<(Message, u64), NetError> {
    match read_frame(stream, MAX_NET_FRAME)? {
        Frame::Payload(p) => {
            let n = p.len() as u64 + 4;
            Ok((Message::decode(&p)?, n))
        }
        Frame::Eof => Err(NetError::Protocol("peer closed the connection".into())),
        Frame::TooLarge(n) => Err(NetError::Protocol(format!(
            "frame of {n} bytes exceeds the {MAX_NET_FRAME}-byte limit"
        ))),
    }
}

fn handle_connection(mut stream: TcpStream, registry: &Registry, cfg: &WorkerConfig) {
    if wire::set_timeouts(&stream, Some(cfg.io_timeout), Some(cfg.io_timeout)).is_err() {
        return;
    }
    match recv(&mut stream) {
        Ok((
            Message::Hello {
                version,
                run_id,
                rank,
                num_workers,
            },
            first_bytes,
        )) => {
            if version != PROTOCOL_VERSION {
                let _ = send(&mut stream, &Message::Abort {
                    run_id,
                    rank,
                    message: format!(
                        "protocol version mismatch: worker speaks {PROTOCOL_VERSION}, coordinator sent {version}"
                    ),
                });
                return;
            }
            if num_workers == 0 || rank >= num_workers {
                let _ = send(
                    &mut stream,
                    &Message::Abort {
                        run_id,
                        rank,
                        message: format!("bad handshake: rank {rank} of {num_workers} workers"),
                    },
                );
                return;
            }
            let Some(inbox) = registry.register(run_id) else {
                let _ = send(
                    &mut stream,
                    &Message::Abort {
                        run_id,
                        rank,
                        message: format!("run id {run_id:#x} is already active on this worker"),
                    },
                );
                return;
            };
            let _guard = InboxGuard { registry, run_id };
            if cfg.trace.is_some() {
                // Tag this process's events with the session identity so
                // the merged cluster timeline attributes them to rank.
                eclat_obs::trace::set_identity(run_id, rank);
            }
            eclat_obs::log_info!(
                "eclat-net",
                "run {run_id:#x}: session open as rank {rank}/{num_workers}"
            );
            let mut session = Session {
                stream,
                run_id,
                rank,
                num_workers,
                inbox,
                cfg,
                stats: WorkerStats::default(),
                started: Instant::now(),
            };
            session.stats.bytes_received += first_bytes;
            let outcome = session.run();
            if let Some(path) = &cfg.trace {
                if let Err(e) = eclat_obs::trace::append_file(path) {
                    eclat_obs::log_warn!(
                        "eclat-net",
                        "run {run_id:#x}: cannot write trace {}: {e}",
                        path.display()
                    );
                }
            }
            match outcome {
                Ok(()) => {
                    eclat_obs::log_info!(
                        "eclat-net",
                        "run {run_id:#x}: rank {rank} session complete"
                    );
                }
                Err(e) => {
                    eclat_obs::log_error!(
                        "eclat-net",
                        "run {run_id:#x}: rank {rank} session failed: {e}"
                    );
                    // Tell the coordinator why before hanging up; if the
                    // failure *was* the coordinator, the write just fails.
                    let _ = send(
                        &mut session.stream,
                        &Message::Abort {
                            run_id,
                            rank,
                            message: e.to_string(),
                        },
                    );
                }
            }
        }
        Ok((
            Message::Partials {
                run_id,
                from_rank,
                entries,
            },
            frame_bytes,
        )) => match registry.lookup(run_id) {
            Some(inbox) => {
                eclat_obs::log_debug!(
                    "eclat-net",
                    "run {run_id:#x}: partials deposit from rank {from_rank} ({frame_bytes} B)"
                );
                inbox.deposit(from_rank, entries, frame_bytes);
                let _ = send(&mut stream, &Message::PartialsAck { run_id });
            }
            None => {
                eclat_obs::log_warn!(
                    "eclat-net",
                    "run {run_id:#x}: rejecting partials from rank {from_rank}: unknown run"
                );
                // Cross-talk guard: a deposit for a run this worker never
                // started (stale sender, or a different cluster's run id).
                let _ = send(
                    &mut stream,
                    &Message::Abort {
                        run_id,
                        rank: from_rank,
                        message: format!("no active run {run_id:#x} on this worker"),
                    },
                );
            }
        },
        Ok((other, _)) => {
            let _ = send(
                &mut stream,
                &Message::Abort {
                    run_id: other.run_id(),
                    rank: u32::MAX,
                    message: format!("unexpected {} as first message", other.label()),
                },
            );
        }
        Err(e) => {
            // Truncated/oversized/undecodable first frame: answer with a
            // diagnostic if the socket still works, then close.
            let _ = send(
                &mut stream,
                &Message::Abort {
                    run_id: 0,
                    rank: u32::MAX,
                    message: format!("bad first frame: {e}"),
                },
            );
        }
    }
}

/// Move `classes` into a budgeted [`SpillStore`] under `dir`; tid-lists
/// beyond the budget go to disk, the per-class metadata stays resident.
fn spill_classes(
    dir: PathBuf,
    classes: Vec<EquivalenceClass>,
    budget: u64,
) -> io::Result<ClassSource> {
    let mut store = SpillStore::create(&dir, budget, classes.len())?;
    let mut skeletons = Vec::with_capacity(classes.len());
    for (i, class) in classes.into_iter().enumerate() {
        let mut itemsets = Vec::with_capacity(class.members.len());
        let mut lists: Vec<TidList> = Vec::with_capacity(class.members.len());
        for m in class.members {
            itemsets.push(m.itemset);
            lists.push(m.tids);
        }
        skeletons.push(Mutex::new(Some((class.prefix, itemsets))));
        store.insert(i, lists)?;
    }
    Ok(ClassSource::Spilled {
        vault: Mutex::new(store),
        skeletons,
    })
}

/// What one executor thread of the asynchronous phase accumulated.
#[derive(Default)]
struct ThreadTally {
    frequent: FrequentSet,
    ops: OpMeter,
    /// Seconds inside the mining kernel.
    compute_secs: f64,
    /// Seconds fetching classes (lock wait plus any disk fault).
    fetch_secs: f64,
}

/// The asynchronous phase (§5.3) on one host: mine every class of
/// `source` on `threads`, heaviest first, each executor thread into its
/// own result set. Returns the per-thread tallies (indexed by thread)
/// and one [`ClassStats`] per class, in class order.
///
/// # Errors
/// [`NetError::Worker`] for the first failed class fetch in class order
/// (a spill fault).
fn mine_owned(
    source: &ClassSource,
    weights: &[u64],
    threads: &Threads,
    threshold: u32,
    cfg: &eclat::EclatConfig,
    rank: u32,
) -> Result<(Vec<ThreadTally>, Vec<ClassStats>), NetError> {
    let tallies: Vec<Mutex<ThreadTally>> = (0..threads.get()).map(|_| Mutex::default()).collect();
    let mined = threads.map((0..weights.len()).collect(), weights, |t, _, i: usize| {
        let mut tally = tallies[t].lock().expect("thread tally poisoned");
        let t_fetch = Instant::now();
        let class = source.fetch(i)?;
        tally.fetch_secs += t_fetch.elapsed().as_secs_f64();
        let _span = eclat_obs::trace::span_arg("class", i as u64);
        let t_mine = Instant::now();
        let tally = &mut *tally;
        let cs = pipeline::mine_class(class, threshold, cfg, &mut tally.ops, &mut tally.frequent);
        tally.compute_secs += t_mine.elapsed().as_secs_f64();
        Ok(cs)
    });
    let classes = mined
        .into_iter()
        .collect::<Result<Vec<_>, String>>()
        .map_err(|message| NetError::Worker { rank, message })?;
    let tallies = tallies
        .into_iter()
        .map(|t| t.into_inner().expect("thread tally poisoned"))
        .collect();
    Ok((tallies, classes))
}

/// One coordinator-driven mining session.
struct Session<'a> {
    stream: TcpStream,
    run_id: u64,
    rank: u32,
    num_workers: u32,
    inbox: Arc<Inbox>,
    cfg: &'a WorkerConfig,
    stats: WorkerStats,
    started: Instant,
}

impl Session<'_> {
    /// Spill `classes` under a unique per-run directory (see
    /// [`spill_classes`]).
    fn spill_classes(
        &self,
        classes: Vec<EquivalenceClass>,
        budget: u64,
    ) -> Result<ClassSource, NetError> {
        let base = self
            .cfg
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "eclat-spill-{}-{:016x}-r{}",
            std::process::id(),
            self.run_id,
            self.rank
        ));
        spill_classes(dir, classes, budget).map_err(|e| NetError::Worker {
            rank: self.rank,
            message: format!("spill store failed: {e}"),
        })
    }

    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let t = Instant::now();
        let n = send(&mut self.stream, msg)?;
        self.stats.net_secs += t.elapsed().as_secs_f64();
        self.stats.bytes_sent += n;
        Ok(())
    }

    /// Receive the coordinator's next instruction (idle time).
    fn recv(&mut self) -> Result<Message, NetError> {
        let t = Instant::now();
        let (msg, n) = recv(&mut self.stream)?;
        self.stats.idle_secs += t.elapsed().as_secs_f64();
        self.stats.bytes_received += n;
        if msg.run_id() != self.run_id {
            return Err(NetError::Protocol(format!(
                "run id mismatch: session {:#x}, frame {:#x}",
                self.run_id,
                msg.run_id()
            )));
        }
        if let Message::Abort { message, .. } = msg {
            return Err(NetError::Worker {
                rank: u32::MAX,
                message: format!("coordinator aborted: {message}"),
            });
        }
        Ok(msg)
    }

    fn run(&mut self) -> Result<(), NetError> {
        self.send(&Message::HelloAck {
            run_id: self.run_id,
        })?;

        // ---- Assign: the local database block.
        let (threshold, tid_offset, mine_cfg, want_items, db) = match self.recv()? {
            Message::Assign {
                threshold,
                tid_offset,
                flags,
                block,
                ..
            } => {
                let (cfg, want_items) = crate::proto::decode_config(flags)?;
                let (db, _) = binfmt::read_horizontal(&mut &block[..])
                    .map_err(|e| NetError::Protocol(format!("bad database block: {e}")))?;
                (threshold, tid_offset, cfg, want_items, db)
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "expected Assign, got {}",
                    other.label()
                )))
            }
        };

        // ---- Initialization (§5.1): local triangular counting, blocked
        // over this host's P threads (partial triangles sum-merge, the
        // intra-host version of the coordinator's reduction).
        let span_init = eclat_obs::trace::span(crate::PHASE_INIT);
        let threads = Threads::new(self.cfg.threads);
        let t = Instant::now();
        let mut init_ops = OpMeter::new();
        let counts = pipeline::count_pairs_blocked(&db, &threads, &mut init_ops);
        let items = if want_items {
            count_items(&db, 0..db.num_transactions(), &mut init_ops)
        } else {
            Vec::new()
        };
        self.stats.compute_secs += t.elapsed().as_secs_f64();
        self.stats.init_ops = init_ops;
        self.send(&Message::Counts {
            run_id: self.run_id,
            num_items: db.num_items(),
            triangle: counts.tri.raw().to_vec(),
            items,
        })?;
        drop(span_init);

        // ---- Plan (or Goodbye when the global L2 came out empty).
        let (l2, slot_owner, peers) = match self.recv()? {
            Message::Plan {
                l2,
                slot_owner,
                peers,
                ..
            } => (l2, slot_owner, peers),
            Message::Goodbye { .. } => return Ok(()),
            other => {
                return Err(NetError::Protocol(format!(
                    "expected Plan, got {}",
                    other.label()
                )))
            }
        };
        if slot_owner.len() != l2.len() || peers.len() != self.num_workers as usize {
            return Err(NetError::Protocol(format!(
                "inconsistent plan: {} pairs, {} owners, {} peers for {} workers",
                l2.len(),
                slot_owner.len(),
                peers.len(),
                self.num_workers
            )));
        }
        // Placement reads each pair's count from this host's triangle, so
        // the pairs must be ascending, ordered and in its item range.
        let n = db.num_items();
        let in_range = |&(a, b): &(u32, u32)| a < b && b < n;
        if !l2.iter().all(in_range) || !l2.windows(2).all(|w| w[0] < w[1]) {
            return Err(NetError::Protocol(format!(
                "plan pairs must be ascending, ordered and below {n} items"
            )));
        }

        // ---- Transformation (§5.2.2 + §6.3): local partials, placed by
        // this host's blocks, then the exchange.
        let span_transform = eclat_obs::trace::span(crate::PHASE_TRANSFORM);
        let t = Instant::now();
        let mut transform_ops = OpMeter::new();
        let pairs: Vec<(ItemId, ItemId)> =
            l2.iter().map(|&(a, b)| (ItemId(a), ItemId(b))).collect();
        let block_counts = counts.block_counts(&pairs);
        let lists =
            pipeline::place_pair_tidlists(&db, &pairs, &block_counts, &threads, &mut transform_ops);
        let routed = route_partials(&lists, &slot_owner, self.num_workers, tid_offset);
        drop(lists);
        self.stats.compute_secs += t.elapsed().as_secs_f64();

        let deadline = Instant::now() + self.cfg.exchange_timeout;
        self.exchange(routed, &peers)?;
        let t = Instant::now();
        let deposits = self
            .inbox
            .wait_all(self.num_workers, deadline)
            .map_err(|missing| NetError::Worker {
                rank: self.rank,
                message: format!(
                    "exchange timed out after {:?} waiting for partials from ranks {missing:?}",
                    self.cfg.exchange_timeout
                ),
            })?;
        self.stats.idle_secs += t.elapsed().as_secs_f64();
        self.stats.bytes_received += self.inbox.bytes_received.swap(0, Ordering::Relaxed);

        // Owner-side concatenation in rank order (§6.3): lists arrive
        // globally sorted because the blocks' tid ranges ascend.
        let t = Instant::now();
        let assembled = assemble(&deposits, l2.len()).map_err(NetError::Protocol)?;
        transform_ops.record += assembled.iter().map(|l| l.len() as u64).sum::<u64>();
        let owned: Vec<(ItemId, ItemId, tidlist::TidList)> = assembled
            .into_iter()
            .enumerate()
            .filter(|&(s, _)| slot_owner[s] == self.rank)
            .map(|(s, list)| (ItemId(l2[s].0), ItemId(l2[s].1), list))
            .collect();
        let classes = classes_of_l2(owned);
        self.stats.compute_secs += t.elapsed().as_secs_f64();
        self.stats.transform_ops = transform_ops;

        // The same C(s,2) cost model the coordinator scheduled workers
        // by orders the classes for this host's threads: each free
        // thread pulls the heaviest class still waiting.
        let weights = class_weights(&classes, mine_cfg.heuristic);

        // Under a memory budget, route every owned class through the
        // spill store now (the paper's transformation-phase disk write:
        // "The tid-lists of itemsets in G are then written out to
        // disk"); the class loop faults them back one class at a time.
        let source = match self.cfg.mem_budget {
            None => {
                ClassSource::Resident(classes.into_iter().map(|c| Mutex::new(Some(c))).collect())
            }
            Some(budget) => self.spill_classes(classes, budget)?,
        };

        // Non-blocking phase marker: the coordinator splits transform
        // from async wall time on this; the worker mines on immediately.
        self.send(&Message::ExchangeDone {
            run_id: self.run_id,
        })?;
        drop(span_transform);

        // ---- Asynchronous phase (§5.3): mine owned classes on P
        // threads through the shared pipeline kernel, no comms.
        let span_async = eclat_obs::trace::span(crate::PHASE_ASYNC);
        let (tallies, class_stats) =
            mine_owned(&source, &weights, &threads, threshold, &mine_cfg, self.rank)?;
        let spill = source.metrics();
        let mut frequent = FrequentSet::new();
        let mut async_ops = OpMeter::new();
        self.stats.thread_compute_secs = Vec::with_capacity(tallies.len());
        self.stats.thread_disk_secs = Vec::with_capacity(tallies.len());
        for tally in tallies {
            frequent.merge(tally.frequent);
            async_ops.merge(&tally.ops);
            self.stats.thread_compute_secs.push(tally.compute_secs);
            self.stats.thread_disk_secs.push(tally.fetch_secs);
        }
        self.stats.threads = threads.get() as u32;
        // Per-thread spill I/O: faults land on the faulting thread,
        // eviction writes (session-thread work during insert) on thread 0.
        self.stats.thread_disk_secs[0] += spill.write_secs;
        self.stats.spill_bytes_written = spill.bytes_written;
        self.stats.spill_bytes_read = spill.bytes_read;
        self.stats.async_ops = async_ops;
        self.stats.classes = class_stats;
        drop(span_async);

        // ---- Final reduction: ship the local result set.
        let span_reduce = eclat_obs::trace::span(crate::PHASE_REDUCE);
        let frequent: Vec<(Vec<u32>, u32)> = frequent
            .iter()
            .map(|(is, sup)| (is.items().iter().map(|i| i.0).collect(), sup))
            .collect();
        self.stats.finish_secs = self.started.elapsed().as_secs_f64();
        let result = Message::Result {
            run_id: self.run_id,
            rank: self.rank,
            frequent,
            stats: Box::new(std::mem::take(&mut self.stats)),
        };
        self.send(&result)?;
        drop(span_reduce);

        // ---- Goodbye (or a clean close) ends the session.
        match self.recv() {
            Ok(Message::Goodbye { .. }) => Ok(()),
            Ok(other) => Err(NetError::Protocol(format!(
                "expected Goodbye, got {}",
                other.label()
            ))),
            // A coordinator that hangs up after Result is fine.
            Err(NetError::Protocol(_)) | Err(NetError::Io(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Push this worker's partials to every peer (self-deposit locally).
    /// Every rank receives an entry — empty vectors included — so owners
    /// can count depositors for completeness.
    fn exchange(&mut self, routed: Vec<Entries>, peers: &[String]) -> Result<(), NetError> {
        let t = Instant::now();
        for (q, entries) in routed.into_iter().enumerate() {
            if q as u32 == self.rank {
                self.inbox.deposit(self.rank, entries, 0);
                continue;
            }
            let msg = Message::Partials {
                run_id: self.run_id,
                from_rank: self.rank,
                entries,
            };
            let mut peer = wire::connect_retry(
                peers[q].as_str(),
                self.cfg.connect_retries,
                self.cfg.connect_backoff,
            )
            .map_err(|e| NetError::Worker {
                rank: self.rank,
                message: format!("cannot reach peer {q} at {}: {e}", peers[q]),
            })?;
            wire::set_timeouts(&peer, Some(self.cfg.io_timeout), Some(self.cfg.io_timeout))?;
            self.stats.bytes_sent += send(&mut peer, &msg)?;
            let (reply, n) = recv(&mut peer)?;
            self.stats.bytes_received += n;
            match reply {
                Message::PartialsAck { run_id } if run_id == self.run_id => {}
                Message::Abort { message, .. } => {
                    return Err(NetError::Worker {
                        rank: self.rank,
                        message: format!("peer {q} rejected partials: {message}"),
                    })
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "peer {q} answered {} to partials",
                        other.label()
                    )))
                }
            }
        }
        self.stats.net_secs += t.elapsed().as_secs_f64();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclat::EclatConfig;
    use mining_types::MinSupport;

    fn classes() -> (Vec<EquivalenceClass>, u32) {
        let db = apriori::reference::random_db(3, 200, 12, 6);
        let threshold = MinSupport::from_percent(5.0).count_threshold(db.num_transactions());
        let mut meter = OpMeter::new();
        let tri = eclat::transform::count_pairs(&db, 0..db.num_transactions(), &mut meter);
        let l2 = pipeline::frequent_l2(&tri, threshold);
        let classes = pipeline::vertical_classes(&db, &l2, &mut meter);
        assert!(classes.len() > 3, "the fixture needs several classes");
        (classes, threshold)
    }

    #[test]
    fn spill_fault_surfaces_as_a_worker_error() {
        let (classes, threshold) = classes();
        let cfg = EclatConfig::default();
        let weights = class_weights(&classes, cfg.heuristic);
        for p in [1, 2, 3, 8] {
            let dir =
                std::env::temp_dir().join(format!("eclat-spill-fault-{}-p{p}", std::process::id()));
            // Budget 0 spills every class; deleting the store under it
            // makes every fault-in fail.
            let source = spill_classes(dir.clone(), classes.clone(), 0).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            match mine_owned(&source, &weights, &Threads::new(p), threshold, &cfg, 7) {
                Err(NetError::Worker { rank, message }) => {
                    assert_eq!(rank, 7);
                    assert!(message.contains("spill fault"), "P={p}: {message}");
                }
                Err(other) => panic!("P={p}: wrong error {other}"),
                Ok(_) => panic!("P={p}: a lost spill store must fail the phase"),
            }
        }
    }
}
