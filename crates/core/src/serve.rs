//! `hoyan serve` — the resident verification daemon (ROADMAP item 2).
//!
//! Every one-shot `hoyan` query pays full startup: parse → compile → BDD
//! build. The daemon pays it once, keeps `ConfigSnapshot` →
//! [`Verifier`] → [`FamilyCache`] resident, and answers queries over a
//! line-delimited JSON protocol on a plain [`TcpListener`] (std-only: the
//! hermetic policy rules out async runtimes — see `tests/hermetic.rs`).
//!
//! # Protocol
//!
//! One JSON object per line, one response line per request, on the same
//! connection, in order. Requests carry a `kind` plus kind-specific
//! fields and an optional `id` that is echoed back first:
//!
//! ```text
//! -> {"id":"q1","kind":"reach","prefix":"10.0.0.0/24","device":"CR1x0"}
//! <- {"id":"q1","ok":true,"kind":"reach","prefix":"10.0.0.0/24",
//!     "device":"CR1x0","k":1,"reachable_now":true,"resilient":true,
//!     "source":"cache"}
//! ```
//!
//! Kinds: `reach` (per-device route reachability), `equiv` (role
//! equivalence of two devices), `whatif` (config push → snapshot diff →
//! [`Verifier::reverify_opts`] of dirty families only), `stats`
//! (daemon counters), `shutdown`. Errors are structured — a malformed
//! line yields `{"ok":false,"error":"parse",...}` and keeps the
//! connection open.
//!
//! # Admission control
//!
//! Two layers, both deterministic:
//!
//! * **Connections**: `workers` connections are served concurrently;
//!   up to `queue_cap` more may wait. Beyond that the accept loop
//!   answers `{"ok":false,"error":"overloaded","retry_after_ms":N}` and
//!   closes — a rejected client never ties up a worker.
//! * **Requests**: work triggered by a request (a cache-miss `reach`
//!   simulation and the IS-IS database it may build, a `whatif` reverify)
//!   runs under the per-family [`FamilyBudget`]: the server-wide caps
//!   tightened by any `budget_nodes` / `budget_ops` / `deadline_ms` fields
//!   on the request itself. A breach is answered with a structured
//!   `over_budget` error (and a family simulation's is billed to the
//!   flight recorder); the worker, the connection and every other
//!   in-flight request keep running. Cache hits are served
//!   from the resident reports and never consult the budget.
//!
//! The resident baseline sweep (at bind time) runs *unbudgeted*: it is
//! operator-initiated, and quarantining baseline families would turn
//! every later hit into a budgeted miss.
//!
//! # IS-IS budgets
//!
//! The resident state holds one conditioned IS-IS database per failure
//! budget it has needed, all over one shared [`NetworkModel`]. The bind
//! builds the one at `k` (the budget the cache is swept at); an off-cache
//! `reach` at `k'` uses the smallest resident budget `>= k'` and builds one
//! at `k'` (capped at the link count) only when none is resident, under the
//! request's budget — a breach is an `over_budget` reply and leaves nothing
//! resident; `equiv` uses budget 3, as the CLI does. A database at
//! `k'' >= k'` is exact on every `<= k'`-failure scenario, so every answer
//! is the one a database at `k'` gives. A `whatif` push that leaves every
//! IS-IS input unchanged ([`NetworkModel::same_igp_inputs`]) carries every
//! database forward; any other push rebuilds the one at `k` and drops the
//! rest.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::Duration;

use hoyan_config::{parse_config, ConfigSnapshot, DeviceConfig};
use hoyan_device::VsbProfile;
use hoyan_nettypes::Ipv4Prefix;
use hoyan_rt::json::{self, Value};

use crate::isis::IsisDb;
use crate::network::NetworkModel;
use crate::propagate::{SimError, Simulation};
use crate::snapshot::{CompiledNetwork, FamilyCache};
use crate::verify::{panic_message, FamilyBudget, FamilyCost, SweepOptions, Verifier};

/// The IS-IS budget `equiv` runs at: role equivalence runs unbounded
/// simulations, whose answers can depend on conditions outside any
/// `k`-failure ball, so it keeps the budget `hoyan equiv` uses.
const EQUIV_ISIS_K: u32 = 3;

/// Daemon configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Connections served concurrently (each worker owns one connection
    /// at a time).
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the accept
    /// loop starts rejecting with `overloaded`.
    pub queue_cap: usize,
    /// Failure budget the resident cache is built at; cached `reach`
    /// answers are at this `k`. The bind builds the IS-IS database at this
    /// budget too.
    pub k: u32,
    /// Threads for the warm-up sweep and for `whatif` reverifies.
    pub sweep_threads: usize,
    /// Server-wide per-request resource caps (requests may tighten,
    /// never loosen). `Default` = uncapped.
    pub budget: FamilyBudget,
    /// *Floor* of the advisory backoff carried on `overloaded`
    /// rejections. The advertised value scales with how deep the wait
    /// queue already is (see [`Server`]'s admission docs): a static
    /// hint tells every rejected client to retry at the same moment,
    /// which re-creates the overload it is backing off from.
    pub retry_after_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 4,
            queue_cap: 64,
            k: 1,
            sweep_threads: 1,
            budget: FamilyBudget::default(),
            retry_after_ms: 100,
        }
    }
}

/// Why the daemon failed to come up.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind.
    Bind(String),
    /// The configurations did not compile into a verifier.
    Build(String),
    /// The warm-up sweep failed.
    Sweep(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind: {e}"),
            ServeError::Build(e) => write!(f, "build: {e}"),
            ServeError::Sweep(e) => write!(f, "warm sweep: {e}"),
        }
    }
}

/// Counter snapshot returned by [`Server::run`] when the daemon drains.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Request lines received (including malformed ones).
    pub requests: u64,
    /// Connections rejected by the bounded queue.
    pub rejected: u64,
}

/// One IS-IS budget's verifier, built once by whichever request needs it
/// first; requests that race for the same budget wait for that one build.
/// A build that fails (over its request's budget) leaves the slot empty,
/// for a later request to try under its own budget.
#[derive(Default)]
struct Slot {
    built: OnceLock<Arc<Verifier>>,
    building: Mutex<()>,
}

fn built_slot(v: Arc<Verifier>) -> Arc<Slot> {
    Arc::new(Slot {
        built: OnceLock::from(v),
        building: Mutex::new(()),
    })
}

/// The resident compiled state. Swapped atomically (behind an
/// `RwLock<Arc<..>>`) on a successful `whatif` push; readers clone the
/// `Arc` and answer from a consistent snapshot even while a push is
/// rebuilding.
struct Resident {
    snapshot: ConfigSnapshot,
    /// The verifier at `cache.k`, the budget the cache was swept at.
    verifier: Arc<Verifier>,
    cache: FamilyCache,
    /// IS-IS budget → verifier, each over `verifier.net`. The `cache.k`
    /// entry is `verifier`; the others are built on demand.
    databases: Mutex<BTreeMap<u32, Arc<Slot>>>,
}

impl Resident {
    /// `verifier` was built at `cache.k`; `others` are further databases
    /// over the same model, by budget.
    fn new(
        snapshot: ConfigSnapshot,
        verifier: Arc<Verifier>,
        cache: FamilyCache,
        others: impl IntoIterator<Item = (u32, Arc<Verifier>)>,
    ) -> Resident {
        let mut databases: BTreeMap<u32, Arc<Slot>> = others
            .into_iter()
            .map(|(k, v)| (k, built_slot(v)))
            .collect();
        databases.insert(cache.k, built_slot(Arc::clone(&verifier)));
        Resident {
            snapshot,
            verifier,
            cache,
            databases: Mutex::new(databases),
        }
    }

    /// The verifier whose IS-IS database was built at exactly `isis_k`,
    /// building it unbudgeted if it is not resident.
    fn at(&self, isis_k: u32) -> Result<Arc<Verifier>, SimError> {
        let slot = Arc::clone(self.lock_databases().entry(isis_k).or_default());
        self.fill(&slot, isis_k, FamilyBudget::default())
    }

    /// The verifier for a query at failure budget `k`: the smallest built
    /// IS-IS budget `>= k`, or a new database built under `budget`. The new
    /// one's budget is `k`, capped at the link count: no failure set is
    /// larger, so a database at that budget is exact for any bigger `k`
    /// and there is at most one on-demand database per link.
    fn covering(&self, k: u32, budget: FamilyBudget) -> Result<Arc<Verifier>, SimError> {
        let links = u32::try_from(self.verifier.net.topology.link_count()).unwrap_or(u32::MAX);
        let isis_k = k.min(links);
        let slot = {
            let mut databases = self.lock_databases();
            let resident = databases
                .range(isis_k..)
                .find_map(|(_, slot)| slot.built.get().cloned());
            if let Some(v) = resident {
                return Ok(v);
            }
            Arc::clone(databases.entry(isis_k).or_default())
        };
        self.fill(&slot, isis_k, budget)
    }

    /// Builds `slot`'s database at `isis_k` under `budget` unless it is
    /// built already; a request that finds a build in flight waits for it.
    /// Runs outside the map's lock, so a long build blocks only the
    /// requests that need this budget.
    fn fill(
        &self,
        slot: &Slot,
        isis_k: u32,
        budget: FamilyBudget,
    ) -> Result<Arc<Verifier>, SimError> {
        let _building = slot.building.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(v) = slot.built.get() {
            return Ok(Arc::clone(v));
        }
        let net = Arc::clone(&self.verifier.net);
        let caps = hoyan_logic::BddBudget {
            max_live_nodes: budget.max_live_nodes,
            max_ops: budget.max_ite_ops,
        };
        let isis = IsisDb::build_within(&net, Some(isis_k), caps, budget.deadline_ms)?;
        let v = Arc::new(Verifier::from_compiled(CompiledNetwork {
            net,
            isis: Arc::new(isis),
            isis_k: Some(isis_k),
        }));
        Ok(Arc::clone(slot.built.get_or_init(|| v)))
    }

    /// Every database built so far, by budget.
    fn built(&self) -> Vec<(u32, Arc<IsisDb>)> {
        self.lock_databases()
            .iter()
            .filter_map(|(k, slot)| Some((*k, Arc::clone(&slot.built.get()?.isis))))
            .collect()
    }

    fn lock_databases(&self) -> std::sync::MutexGuard<'_, BTreeMap<u32, Arc<Slot>>> {
        self.databases.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    rejected: AtomicU64,
    reach: AtomicU64,
    equiv: AtomicU64,
    whatif: AtomicU64,
    stats: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    over_budget: AtomicU64,
    reverify_dirty: AtomicU64,
    reverify_reused: AtomicU64,
    malformed: AtomicU64,
}

/// Accepted-connection handoff. `waiting` holds connections no worker has
/// claimed yet; `busy` counts workers currently serving one. Both change
/// only under the owning lock, so admission decisions are exact — no
/// startup or hand-off window where a free worker looks absent.
#[derive(Default)]
struct ConnQueue {
    waiting: VecDeque<TcpStream>,
    busy: usize,
}

/// The resident verification daemon. [`Server::bind`] compiles the
/// snapshot and runs the warm-up sweep; [`Server::run`] serves until a
/// `shutdown` request arrives.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    opts: ServeOptions,
    state: RwLock<Arc<Resident>>,
    /// Serializes `whatif` pushes: diff → reverify → swap is one
    /// critical section, while readers keep answering from the old
    /// `Arc`.
    push_lock: Mutex<()>,
    queue: Mutex<ConnQueue>,
    ready: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    seq: AtomicU64,
}

impl Server {
    /// Compiles `configs`, runs the warm-up sweep at `opts.k`, and binds
    /// `addr` (use port 0 for an ephemeral port; see
    /// [`Server::local_addr`]).
    pub fn bind(
        configs: Vec<DeviceConfig>,
        addr: &str,
        opts: ServeOptions,
    ) -> Result<Server, ServeError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::Bind(format!("{addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Bind(e.to_string()))?;
        let snapshot = ConfigSnapshot::new(configs);
        let verifier = Verifier::new(
            snapshot.devices().to_vec(),
            VsbProfile::ground_truth,
            Some(opts.k),
        )
        .map_err(|e| ServeError::Build(e.to_string()))?;
        let (_, cache) = verifier
            .verify_all_routes_cached(opts.k, opts.sweep_threads.max(1))
            .map_err(|e| ServeError::Sweep(e.to_string()))?;
        Ok(Server {
            listener,
            addr: local,
            opts,
            state: RwLock::new(Arc::new(Resident::new(
                snapshot,
                Arc::new(verifier),
                cache,
                [],
            ))),
            push_lock: Mutex::new(()),
            queue: Mutex::new(ConnQueue::default()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            seq: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Devices in the resident snapshot.
    pub fn device_count(&self) -> usize {
        self.resident().verifier.net.devices.len()
    }

    /// Families in the resident cache.
    pub fn family_count(&self) -> usize {
        self.resident().cache.len()
    }

    fn resident(&self) -> Arc<Resident> {
        Arc::clone(&self.state.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// The resident IS-IS database built at `isis_k`, if one is built.
    /// Lets tests and monitoring see which budgets are held and whether a
    /// push carried a database forward (`Arc::ptr_eq`) or rebuilt it.
    pub fn isis_db(&self, isis_k: u32) -> Option<Arc<IsisDb>> {
        self.resident()
            .built()
            .into_iter()
            .find_map(|(k, db)| (k == isis_k).then_some(db))
    }

    /// Out-of-band equivalent of a `shutdown` request: `run` drains and
    /// returns. For supervisors (and tests) that must stop a daemon whose
    /// connection slots are saturated.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }

    /// Serves until a `shutdown` request arrives, then drains the workers
    /// and returns the final counters.
    pub fn run(&self) -> ServeSummary {
        self.listener
            .set_nonblocking(true)
            .expect("listener must support non-blocking accept");
        std::thread::scope(|s| {
            for _ in 0..self.opts.workers.max(1) {
                s.spawn(|| self.worker_loop());
            }
            self.accept_loop();
            self.ready.notify_all();
        });
        ServeSummary {
            requests: self.counters.requests.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
        }
    }

    fn accept_loop(&self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // One request line, one response line: Nagle only adds
                    // delayed-ACK stalls to that pattern.
                    let _ = stream.set_nodelay(true);
                    self.admit(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Bounded-queue admission: enqueue for a worker, or answer
    /// `overloaded` and close without ever tying up a worker. A
    /// connection is rejected only when every worker has a connection
    /// *and* `queue_cap` more are already waiting (so `queue_cap: 0`
    /// means "serve at most `workers` connections, queue none"). The
    /// busy count — not an idle count — makes admission exact from the
    /// first accept, before the worker threads have even started waiting.
    fn admit(&self, stream: TcpStream) {
        let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        let free = self.opts.workers.max(1).saturating_sub(q.busy);
        if q.waiting.len() >= self.opts.queue_cap + free {
            let retry_ms = self.retry_after_ms(q.waiting.len());
            drop(q);
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            hoyan_obs::metric!(counter "serve.rejected").inc();
            let resp = Value::Obj(vec![
                ("ok".to_string(), Value::Bool(false)),
                ("error".to_string(), Value::Str("overloaded".to_string())),
                (
                    "retry_after_ms".to_string(),
                    Value::Num(retry_ms as f64),
                ),
            ]);
            let mut s = stream;
            let _ = s.write_all(format!("{resp}\n").as_bytes());
            let _ = s.flush();
            return;
        }
        q.waiting.push_back(stream);
        drop(q);
        self.ready.notify_one();
    }

    /// Advisory backoff for an `overloaded` rejection: the configured
    /// floor when the queue has just filled, growing linearly with how
    /// many connections are already waiting per worker —
    /// `floor * (1 + waiting/workers)` — so the deeper the backlog, the
    /// longer rejected clients are told to stay away, and retries spread
    /// out instead of stampeding back at a fixed interval.
    fn retry_after_ms(&self, waiting: usize) -> u64 {
        let workers = self.opts.workers.max(1) as u64;
        self.opts
            .retry_after_ms
            .saturating_mul(1 + waiting as u64 / workers)
    }

    fn worker_loop(&self) {
        loop {
            let stream = {
                let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if let Some(s) = q.waiting.pop_front() {
                        // Claimed under the same lock `admit` holds, so a
                        // popped-but-not-yet-served connection still counts
                        // against the worker pool.
                        q.busy += 1;
                        break Some(s);
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (guard, _) = self
                        .ready
                        .wait_timeout(q, Duration::from_millis(25))
                        .unwrap_or_else(|p| p.into_inner());
                    q = guard;
                }
            };
            match stream {
                Some(s) => {
                    self.serve_conn(s);
                    hoyan_obs::flush_thread_events();
                    self.queue.lock().unwrap_or_else(|p| p.into_inner()).busy -= 1;
                }
                None => return,
            }
        }
    }

    /// Serves one connection until EOF, a write failure, or shutdown.
    /// Reads use a short timeout so the worker keeps observing the
    /// shutdown flag even on an idle connection; a partial line read
    /// before a timeout stays accumulated in `line`.
    fn serve_conn(&self, stream: TcpStream) {
        if stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
        {
            return;
        }
        let reader_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut reader = BufReader::new(reader_half);
        let mut writer = stream;
        let mut line = String::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match reader.read_line(&mut line) {
                Ok(0) => {
                    // EOF: a final unterminated line is still a request.
                    let last = line.trim().to_string();
                    if !last.is_empty() {
                        self.respond(&mut writer, &last);
                    }
                    return;
                }
                Ok(_) => {
                    let req = line.trim().to_string();
                    line.clear();
                    if req.is_empty() {
                        continue;
                    }
                    if !self.respond(&mut writer, &req) {
                        return;
                    }
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    }

    /// Handles one request line and writes the response line. Returns
    /// `false` when the connection should close (shutdown acknowledged,
    /// or the peer is gone).
    fn respond(&self, writer: &mut TcpStream, req: &str) -> bool {
        let (resp, close) = self.handle_line(req);
        let mut out = resp.to_string();
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            return false;
        }
        let _ = writer.flush();
        !close
    }

    /// Parses and dispatches one request line. Never panics outward: the
    /// handler runs under `catch_unwind`, so a request that trips a bug
    /// is answered with a structured `panic` error and the worker lives.
    fn handle_line(&self, raw: &str) -> (Value, bool) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        hoyan_obs::metric!(counter "serve.requests").inc();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let v = match json::parse(raw) {
            Ok(v) => v,
            Err(e) => {
                self.counters.malformed.fetch_add(1, Ordering::Relaxed);
                return (error_response(None, "parse", &e.to_string()), false);
            }
        };
        let id = v.get("id").cloned();
        let kind = match v.get("kind").and_then(Value::as_str) {
            Some(k) => k.to_string(),
            None => {
                return (
                    error_response(id.as_ref(), "bad_request", "missing string field `kind`"),
                    false,
                )
            }
        };
        if kind == "shutdown" {
            self.shutdown.store(true, Ordering::SeqCst);
            return (ok_response(id.as_ref(), "shutdown", Vec::new()), true);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match kind.as_str() {
                "reach" => self.handle_reach(id.as_ref(), &v, seq),
                "equiv" => self.handle_equiv(id.as_ref(), &v),
                "whatif" => self.handle_whatif(id.as_ref(), &v),
                "stats" => self.handle_stats(id.as_ref()),
                other => error_response(
                    id.as_ref(),
                    "bad_request",
                    &format!("unknown kind `{other}`"),
                ),
            }
        }));
        match outcome {
            Ok(resp) => (resp, false),
            Err(payload) => (
                error_response(id.as_ref(), "panic", &panic_message(payload.as_ref())),
                false,
            ),
        }
    }

    /// The request's effective budget: the server caps tightened by any
    /// caps the request carries. A request can only narrow its own
    /// allowance, never widen the server's.
    fn effective_budget(&self, req: &Value) -> FamilyBudget {
        fn tighten(server: Option<u64>, request: Option<u64>) -> Option<u64> {
            match (server, request) {
                (Some(s), Some(r)) => Some(s.min(r)),
                (None, r) => r,
                (s, None) => s,
            }
        }
        let b = self.opts.budget;
        FamilyBudget {
            max_live_nodes: tighten(
                b.max_live_nodes.map(|n| n as u64),
                req_u64(req, "budget_nodes"),
            )
            .map(|n| n as usize),
            max_ite_ops: tighten(b.max_ite_ops, req_u64(req, "budget_ops")),
            deadline_ms: tighten(b.deadline_ms, req_u64(req, "deadline_ms")),
        }
    }

    fn handle_reach(&self, id: Option<&Value>, req: &Value, seq: u64) -> Value {
        self.counters.reach.fetch_add(1, Ordering::Relaxed);
        let Some(prefix_s) = req.get("prefix").and_then(Value::as_str) else {
            return error_response(id, "bad_request", "reach needs a string `prefix`");
        };
        let Some(device) = req.get("device").and_then(Value::as_str) else {
            return error_response(id, "bad_request", "reach needs a string `device`");
        };
        let prefix: Ipv4Prefix = match prefix_s.parse() {
            Ok(p) => p,
            Err(_) => {
                return error_response(id, "bad_request", &format!("bad prefix `{prefix_s}`"))
            }
        };
        let state = self.resident();
        let k = match req_u64(req, "k") {
            Some(k) => u32::try_from(k).unwrap_or(u32::MAX),
            None => state.cache.k,
        };
        let Some(node) = state.verifier.net.topology.node(device) else {
            return error_response(id, "unknown_device", device);
        };
        let canonical = state.verifier.net.topology.name(node).to_string();
        let family = state.verifier.family_of(prefix);

        // Cache hit: the resident sweep already answered this at `k`.
        // Scope/fragile membership is exactly what a fresh sweep reports.
        if k == state.cache.k {
            if let Some(cf) = state.cache.get(&family) {
                if let Some(r) = cf.reports.iter().find(|r| r.prefix == prefix) {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    hoyan_obs::metric!(counter "serve.cache_hits").inc();
                    let reachable = r.scope.iter().any(|h| h == &canonical);
                    let resilient = reachable && !r.fragile.iter().any(|h| h == &canonical);
                    return render_reach_response(
                        id, prefix, &canonical, k, reachable, resilient, "cache",
                    );
                }
            }
        }

        // Miss (different k, or a prefix outside the cached families):
        // a fresh family simulation under the effective budget, against an
        // IS-IS database built at `k` or above. The first miss at a new
        // budget pays that build once, under the same budget: the caps
        // bound each of its simulations, and the deadline spans the build
        // and the family simulation together.
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        hoyan_obs::metric!(counter "serve.cache_misses").inc();
        let budget = self.effective_budget(req);
        let asked = std::time::Instant::now();
        let v = match state.covering(k, budget) {
            Ok(v) => v,
            Err(e @ SimError::OverBudget(_)) | Err(e @ SimError::DeadlineExceeded { .. }) => {
                self.counters.over_budget.fetch_add(1, Ordering::Relaxed);
                return error_response(id, "over_budget", &e.to_string());
            }
            Err(e) => return error_response(id, "sim", &e.to_string()),
        };
        let started = std::time::Instant::now();
        let mut sim = Simulation::new_bgp(&v.net, family, Some(k), Some(&v.isis));
        sim.set_budget(
            hoyan_logic::BddBudget {
                max_live_nodes: budget.max_live_nodes,
                max_ops: budget.max_ite_ops,
            },
            budget
                .deadline_ms
                .map(|ms| ms.saturating_sub(asked.elapsed().as_millis() as u64)),
        );
        let run = sim.run().map_err(|e| match (e, budget.deadline_ms) {
            (SimError::DeadlineExceeded { .. }, Some(limit_ms)) => {
                SimError::DeadlineExceeded { limit_ms }
            }
            (e, _) => e,
        });
        let breached = matches!(
            run,
            Err(SimError::OverBudget(_)) | Err(SimError::DeadlineExceeded { .. })
        );
        // Bill the flight recorder whatever the outcome: hostile
        // requests show up in attribution with their partial cost.
        if hoyan_obs::events_enabled() {
            let wall = if hoyan_obs::timing() {
                started.elapsed().as_nanos() as u64
            } else {
                0
            };
            let cost = FamilyCost::from_manager(&sim.mgr, wall);
            hoyan_obs::record_unit_cost(cost.unit_cost(
                seq,
                format!("serve:{prefix}"),
                breached,
                false,
            ));
        }
        match run {
            Ok(()) => {}
            Err(e @ SimError::OverBudget(_)) | Err(e @ SimError::DeadlineExceeded { .. }) => {
                self.counters.over_budget.fetch_add(1, Ordering::Relaxed);
                return error_response(id, "over_budget", &e.to_string());
            }
            Err(e) => return error_response(id, "sim", &e.to_string()),
        }
        let cond = sim.reach_cond(node, prefix);
        let reachable = sim.mgr.eval(cond, &[]);
        let min_failures = sim.mgr.min_failures_to_falsify(cond);
        render_reach_response(
            id,
            prefix,
            &canonical,
            k,
            reachable,
            min_failures > k,
            "sim",
        )
    }

    fn handle_equiv(&self, id: Option<&Value>, req: &Value) -> Value {
        self.counters.equiv.fetch_add(1, Ordering::Relaxed);
        let Some(a) = req.get("a").and_then(Value::as_str) else {
            return error_response(id, "bad_request", "equiv needs a string `a`");
        };
        let Some(b) = req.get("b").and_then(Value::as_str) else {
            return error_response(id, "bad_request", "equiv needs a string `b`");
        };
        let verifier = match self.resident().at(EQUIV_ISIS_K) {
            Ok(v) => v,
            Err(e) => return error_response(id, "sim", &e.to_string()),
        };
        match verifier.role_equivalence(a, b) {
            Ok(rep) => ok_response(
                id,
                "equiv",
                vec![
                    ("a".to_string(), Value::Str(a.to_string())),
                    ("b".to_string(), Value::Str(b.to_string())),
                    ("equivalent".to_string(), Value::Bool(rep.equivalent)),
                    (
                        "first_difference".to_string(),
                        match rep.first_difference {
                            Some(p) => Value::Str(p.to_string()),
                            None => Value::Null,
                        },
                    ),
                ],
            ),
            Err(SimError::UnknownDevice(d)) => error_response(id, "unknown_device", &d),
            Err(e) => error_response(id, "sim", &e.to_string()),
        }
    }

    /// Config push: parse the pushed texts, diff against the resident
    /// snapshot, reverify only the dirtied families, then atomically
    /// swap the resident state. Queries racing the push answer from the
    /// old snapshot until the swap.
    fn handle_whatif(&self, id: Option<&Value>, req: &Value) -> Value {
        self.counters.whatif.fetch_add(1, Ordering::Relaxed);
        let _push = self.push_lock.lock().unwrap_or_else(|p| p.into_inner());
        let cur = self.resident();
        let mut devices = cur.snapshot.devices().to_vec();
        if let Some(arr) = req.get("configs").and_then(Value::as_arr) {
            for item in arr {
                let Some(text) = item.as_str() else {
                    return error_response(id, "bad_request", "`configs` entries must be strings");
                };
                let cfg = match parse_config(text) {
                    Ok(c) => c,
                    Err(e) => return error_response(id, "config", &e.to_string()),
                };
                match devices.iter_mut().find(|d| d.hostname == cfg.hostname) {
                    Some(slot) => *slot = cfg,
                    None => devices.push(cfg),
                }
            }
        }
        if let Some(arr) = req.get("remove").and_then(Value::as_arr) {
            for item in arr {
                let Some(host) = item.as_str() else {
                    return error_response(id, "bad_request", "`remove` entries must be strings");
                };
                devices.retain(|d| d.hostname != host);
            }
        }
        let next_snap = ConfigSnapshot::new(devices);
        let delta = cur.snapshot.diff(&next_snap);
        if delta.is_empty() {
            return ok_response(
                id,
                "whatif",
                vec![
                    ("devices_changed".to_string(), Value::Num(0.0)),
                    ("dirty".to_string(), Value::Num(0.0)),
                    ("reused".to_string(), Value::Num(cur.cache.len() as f64)),
                    ("quarantined".to_string(), Value::Num(0.0)),
                    ("families".to_string(), Value::Num(cur.cache.len() as f64)),
                ],
            );
        }
        let net = match NetworkModel::from_configs(
            next_snap.devices().to_vec(),
            VsbProfile::ground_truth,
        ) {
            Ok(n) => Arc::new(n),
            Err(e) => return error_response(id, "config", &e.to_string()),
        };
        // Carry forward: a push that touches no IS-IS input keeps every
        // resident database (compared, not assumed — see
        // `NetworkModel::same_igp_inputs`); any other push rebuilds the one
        // at the cache's budget and drops the rest.
        let carry = !delta.igp_affecting
            && delta.added.is_empty()
            && delta.removed.is_empty()
            && cur.verifier.net.same_igp_inputs(&net);
        let databases = if carry {
            cur.built()
        } else {
            match IsisDb::build(&net, Some(cur.cache.k)) {
                Ok(db) => vec![(cur.cache.k, Arc::new(db))],
                Err(e) => return error_response(id, "config", &e.to_string()),
            }
        };
        let mut verifiers: BTreeMap<u32, Arc<Verifier>> = databases
            .into_iter()
            .map(|(k, isis)| {
                let compiled = CompiledNetwork {
                    net: Arc::clone(&net),
                    isis,
                    isis_k: Some(k),
                };
                (k, Arc::new(Verifier::from_compiled(compiled)))
            })
            .collect();
        let verifier = verifiers
            .remove(&cur.cache.k)
            .expect("the cache budget's database is always resident");
        let sweep_opts = SweepOptions {
            budget: self.opts.budget,
            ..SweepOptions::default()
        };
        let outcome = match verifier.reverify_opts(
            &delta,
            &cur.cache,
            cur.cache.k,
            self.opts.sweep_threads.max(1),
            &sweep_opts,
        ) {
            Ok(o) => o,
            Err(e) => return error_response(id, "sim", &e.to_string()),
        };
        self.counters
            .reverify_dirty
            .fetch_add(outcome.recomputed as u64, Ordering::Relaxed);
        self.counters
            .reverify_reused
            .fetch_add(outcome.reused as u64, Ordering::Relaxed);
        hoyan_obs::metric!(counter "serve.reverify_dirty").add(outcome.recomputed as u64);
        let resp = ok_response(
            id,
            "whatif",
            vec![
                (
                    "devices_changed".to_string(),
                    Value::Num(delta.device_count() as f64),
                ),
                ("dirty".to_string(), Value::Num(outcome.recomputed as f64)),
                ("reused".to_string(), Value::Num(outcome.reused as f64)),
                (
                    "quarantined".to_string(),
                    Value::Num(outcome.quarantined.len() as f64),
                ),
                (
                    "families".to_string(),
                    Value::Num(outcome.cache.len() as f64),
                ),
            ],
        );
        let next = Arc::new(Resident::new(next_snap, verifier, outcome.cache, verifiers));
        *self.state.write().unwrap_or_else(|p| p.into_inner()) = next;
        resp
    }

    fn handle_stats(&self, id: Option<&Value>) -> Value {
        self.counters.stats.fetch_add(1, Ordering::Relaxed);
        let state = self.resident();
        let c = &self.counters;
        let n = |a: &AtomicU64| Value::Num(a.load(Ordering::Relaxed) as f64);
        ok_response(
            id,
            "stats",
            vec![
                (
                    "devices".to_string(),
                    Value::Num(state.verifier.net.devices.len() as f64),
                ),
                ("families".to_string(), Value::Num(state.cache.len() as f64)),
                ("cache_k".to_string(), Value::Num(state.cache.k as f64)),
                ("requests".to_string(), n(&c.requests)),
                ("rejected".to_string(), n(&c.rejected)),
                ("reach".to_string(), n(&c.reach)),
                ("equiv".to_string(), n(&c.equiv)),
                ("whatif".to_string(), n(&c.whatif)),
                ("stats".to_string(), n(&c.stats)),
                ("cache_hits".to_string(), n(&c.cache_hits)),
                ("cache_misses".to_string(), n(&c.cache_misses)),
                ("over_budget".to_string(), n(&c.over_budget)),
                ("reverify_dirty".to_string(), n(&c.reverify_dirty)),
                ("reverify_reused".to_string(), n(&c.reverify_reused)),
                ("malformed".to_string(), n(&c.malformed)),
                // The backoff an `overloaded` rejection would advertise
                // right now, given the current queue depth — lets clients
                // and tests observe the load-scaled value.
                (
                    "retry_after_ms".to_string(),
                    Value::Num(self.retry_after_ms(
                        self.queue
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .waiting
                            .len(),
                    ) as f64),
                ),
            ],
        )
    }
}

fn req_u64(req: &Value, key: &str) -> Option<u64> {
    let f = req.get(key).and_then(Value::as_f64)?;
    if f.is_finite() && f >= 0.0 {
        Some(f as u64)
    } else {
        Some(0)
    }
}

fn error_response(id: Option<&Value>, code: &str, detail: &str) -> Value {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_string(), id.clone()));
    }
    fields.push(("ok".to_string(), Value::Bool(false)));
    fields.push(("error".to_string(), Value::Str(code.to_string())));
    fields.push(("detail".to_string(), Value::Str(detail.to_string())));
    Value::Obj(fields)
}

fn ok_response(id: Option<&Value>, kind: &str, fields: Vec<(String, Value)>) -> Value {
    let mut all = Vec::new();
    if let Some(id) = id {
        all.push(("id".to_string(), id.clone()));
    }
    all.push(("ok".to_string(), Value::Bool(true)));
    all.push(("kind".to_string(), Value::Str(kind.to_string())));
    all.extend(fields);
    Value::Obj(all)
}

/// Renders a successful `reach` response. Public so the load generator
/// and tests can render the *expected* wire line from an independently
/// computed sweep report and compare byte-for-byte.
pub fn render_reach_response(
    id: Option<&Value>,
    prefix: Ipv4Prefix,
    device: &str,
    k: u32,
    reachable_now: bool,
    resilient: bool,
    source: &str,
) -> Value {
    ok_response(
        id,
        "reach",
        vec![
            ("prefix".to_string(), Value::Str(prefix.to_string())),
            ("device".to_string(), Value::Str(device.to_string())),
            ("k".to_string(), Value::Num(k as f64)),
            ("reachable_now".to_string(), Value::Bool(reachable_now)),
            ("resilient".to_string(), Value::Bool(resilient)),
            ("source".to_string(), Value::Str(source.to_string())),
        ],
    )
}
