//! A hash-consed reduced ordered binary decision diagram (ROBDD) manager.
//!
//! Topology conditions in Hoyan are formulas over link-aliveness Booleans.
//! Storing them as ROBDD nodes in a shared manager gives us:
//!
//! - canonical forms, so *impossible* conditions are exactly the `FALSE`
//!   node (the paper's "dropping impossible conditions" optimization) and
//!   formula simplification is automatic;
//! - cheap conjunction/disjunction/negation with memoization;
//! - the two failure-counting queries the paper issues to its solver:
//!   [`BddManager::min_failures_to_satisfy`] (used to prune branches that
//!   can only exist under more than `k` failures) and
//!   [`BddManager::min_failures_to_falsify`] (the "least link failures which
//!   causes unreachability" query of §5.4).
//!
//! Variable index `i` means "link *i* is alive".
//!
//! # The ITE kernel
//!
//! Every connective is one call into a single explicit-stack
//! [`BddManager::ite`] apply kernel with one unified operation cache.
//! `if-then-else` is universal for Boolean connectives:
//!
//! ```text
//! ¬a      = ite(a, F, T)         a ∧ b  = ite(a, b, F)
//! a ∨ b   = ite(a, T, b)         a ∧ ¬b = ite(b, F, a)
//! a → b   = ite(a, b, T)         a ⊕ b  = ite(a, ¬b, b)
//! ```
//!
//! so a disjunction is a *single* traversal instead of the De Morgan
//! triple-negation it used to be, and one `(f, g, h)` cache replaces the
//! separate and/not caches. The kernel never recurses: deep chain-shaped
//! conditions (long serial paths) are processed on a heap-allocated task
//! stack, as are all the other traversals (`import`, `restrict`,
//! `count_models`, the failure-cost walks). The hot ones — `ite`, the cost
//! walks, `size`, `gc` — run on scratch kept between calls (owned by the
//! manager; per thread for `size`, which takes `&self`), so a call on a
//! small condition allocates nothing.
//!
//! # Garbage collection and arena reuse
//!
//! Long simulations churn conditions: retracted RIB entries, superseded
//! message conditions and accumulator intermediates leave dead nodes behind.
//! [`BddManager::gc`] mark-and-sweeps the arena from a caller-supplied root
//! set: dead slots go on a free list for reuse by [`mk`](BddManager::var),
//! the unique table is rebuilt from live nodes, and operation/cost memos are
//! dropped. Handles are **stable across collection** — nodes are never
//! moved, so every `Bdd` reachable from a root keeps meaning the same
//! function; any handle *not* reachable from a root is invalidated.
//! Owners (see `Simulation` in `hoyan-core`) poll
//! [`should_gc`](BddManager::should_gc) — a live-node watermark that doubles
//! after each collection — at safe points where they can enumerate every
//! live handle.
//!
//! [`BddManager::recycle`] resets a manager to its freshly-created state
//! while keeping the arena and table allocations, so verifier workers reuse
//! one manager across prefix families instead of reallocating per family.
//!
//! # The shared base arena
//!
//! A sweep builds the same link conditions over and over: every family's
//! simulation re-derives `var`/`nvar` nodes and re-imports the iBGP session
//! conditions from the IS-IS database. [`BddManager::import_base`] installs
//! a read-only *base segment* at the bottom of the arena — nodes bulk-
//! imported once per worker from a shared source manager. Base nodes are
//! permanent: [`gc`](BddManager::gc) always marks them, and
//! [`recycle`](BddManager::recycle) truncates the arena back down to the
//! base (not to the terminals), rebuilding the unique table from it, so the
//! next family starts with every shared condition already interned. The
//! operation cache is cleared *entirely* on recycle — a retained entry
//! keyed by a dead family handle could alias a newly allocated node — while
//! the failure-cost memos keep exactly their base-segment entries (priced
//! once at import), which both recycle and GC preserve.

use std::cell::RefCell;
use std::collections::hash_map::Entry;

use hoyan_rt::hash::{FxHashMap, FxHashSet};

/// A BDD node reference. `Bdd(0)` is FALSE, `Bdd(1)` is TRUE.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Bdd(pub u32);

impl Bdd {
    /// The constant false BDD.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant true BDD.
    pub const TRUE: Bdd = Bdd(1);

    /// Whether this is the constant false node.
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Whether this is the constant true node.
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Whether this is either constant.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Clone, Copy)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

/// Cost used for "infinitely many failures" (unsatisfiable / unfalsifiable).
pub const INF_FAILURES: u32 = u32::MAX;

/// "Not priced yet" in the dense failure-cost memos. A real cost is either
/// [`INF_FAILURES`] or at most the number of variables on a path (one per
/// false-branch taken), so it can never reach `u32::MAX - 1`.
const UNPRICED: u32 = u32::MAX - 1;

/// Per-thread scratch of [`BddManager::size`]: a visit-stamp per arena slot
/// and the traversal stack. `size` takes `&self` on managers shared between
/// threads (the IS-IS database), so the scratch cannot live in the manager;
/// a slot counts as visited only when its stamp equals the current call's
/// generation, which makes the array reusable across calls *and* across
/// managers without clearing.
struct SizeScratch {
    stamps: Vec<u32>,
    generation: u32,
    stack: Vec<Bdd>,
}

thread_local! {
    static SIZE_SCRATCH: RefCell<SizeScratch> = const {
        RefCell::new(SizeScratch {
            stamps: Vec::new(),
            generation: 0,
            stack: Vec::new(),
        })
    };
}

/// Live-node count at which [`BddManager::should_gc`] first trips. After a
/// collection the watermark grows to twice the surviving live set (never
/// below this default), so collection work stays amortized O(1) per
/// allocation even when the live set keeps growing.
const DEFAULT_GC_WATERMARK: usize = 4096;

/// A deterministic resource budget for one manager lifetime segment (one
/// prefix family, between [`BddManager::recycle`] calls). Both caps count
/// *work*, not wall-clock: live arena nodes and ITE expansions are a pure
/// function of the formulas built, so a budgeted run trips at the same
/// point on any machine, at any thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddBudget {
    /// Cap on live nodes ([`BddManager::node_count`]); `None` = unlimited.
    pub max_live_nodes: Option<usize>,
    /// Cap on ITE expansions plus cost-walk steps ([`BddManager::ops`],
    /// which resets on recycle so the count is per-segment); `None` =
    /// unlimited.
    pub max_ops: Option<u64>,
}

/// Which [`BddBudget`] axis was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetBreach {
    /// The live-node cap was exceeded.
    LiveNodes {
        /// The configured cap.
        limit: usize,
        /// Live nodes at the check.
        live: usize,
    },
    /// The operation cap was exceeded.
    Ops {
        /// The configured cap.
        limit: u64,
        /// Operations at the check.
        ops: u64,
    },
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetBreach::LiveNodes { limit, live } => {
                write!(f, "{live} live BDD nodes over the cap of {limit}")
            }
            BudgetBreach::Ops { limit, ops } => {
                write!(f, "{ops} BDD operations over the cap of {limit}")
            }
        }
    }
}

/// Terminal pricing for the failure-cost walks: the target terminal costs
/// 0 failures, the opposite one is unreachable by failures alone.
#[inline]
fn terminal_cost(b: Bdd, falsify: bool) -> u32 {
    match (b.is_false(), falsify) {
        (true, true) | (false, false) => 0,
        (true, false) | (false, true) => INF_FAILURES,
    }
}

/// One frame of the explicit-stack ITE machine: either a subproblem still
/// to solve, or a reduction waiting for its two cofactor results.
enum IteFrame {
    Solve(Bdd, Bdd, Bdd),
    Reduce { key: (Bdd, Bdd, Bdd), var: u32 },
}

/// Point-in-time copy of a manager's per-segment tallies — the same values
/// [`BddManager::recycle`] and `Drop` fold into the process-wide registry.
/// A manager handed out freshly recycled starts with every tally at zero,
/// so reading this at segment end yields exactly that segment's cost; the
/// sweep's per-family cost attribution is built on this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddTallies {
    /// Solver steps (ITE expansions plus failure-cost evaluations).
    pub ops: u64,
    /// Unique-table hits.
    pub unique_hits: u64,
    /// Unique-table misses.
    pub unique_misses: u64,
    /// ITE operation-cache hits.
    pub ite_cache_hits: u64,
    /// ITE operation-cache misses.
    pub ite_cache_misses: u64,
    /// Mark-and-sweep GC passes.
    pub gc_runs: u64,
    /// Nodes reclaimed by GC.
    pub nodes_reclaimed: u64,
    /// Nodes allocated.
    pub nodes_created: u64,
    /// Peak live nodes, terminals and any base segment included.
    pub peak_live: usize,
}

/// The arena and operation caches for a family of BDDs.
///
/// All [`Bdd`] handles are only meaningful relative to the manager that
/// created them. The manager is not thread-safe by design (per-prefix
/// simulations each own a manager; parallelism is across prefixes).
pub struct BddManager {
    nodes: Vec<Node>,
    /// Dead arena slots available for reuse, produced by [`Self::gc`].
    free: Vec<u32>,
    /// Arena length of the read-only shared base segment (see
    /// [`Self::import_base`]); 2 (just the terminals) when no base is
    /// installed. Slots below this never die: GC always marks them and
    /// [`Self::recycle`] truncates down to — not past — them.
    base_len: usize,
    unique: FxHashMap<(u32, Bdd, Bdd), Bdd>,
    /// The one operation cache: `(f, g, h) -> ite(f, g, h)`.
    ite_cache: FxHashMap<(Bdd, Bdd, Bdd), Bdd>,
    /// Failure-cost memos, dense by arena slot ([`UNPRICED`] = not priced;
    /// slots past the end are unpriced too). Base-segment prices survive
    /// [`Self::gc`] and [`Self::recycle`]; everything above is reset there,
    /// which is also what makes a reused free slot read unpriced — slots
    /// are only ever freed by `gc`.
    sat_cost: Vec<u32>,
    falsify_cost: Vec<u32>,
    /// Scratch stacks of [`Self::ite`], [`Self::price_all`] and
    /// [`Self::gc`], kept between calls so the hot paths do not allocate.
    /// Each user takes its scratch out, leaves it empty when done and puts
    /// it back, so a call never observes another call's leftovers.
    ite_tasks: Vec<IteFrame>,
    ite_results: Vec<Bdd>,
    walk_stack: Vec<Bdd>,
    gc_marked: Vec<bool>,
    gc_watermark: usize,
    /// Per-segment resource caps; see [`Self::budget_exceeded`].
    budget: BddBudget,
    /// Lifetime count of solver steps: ITE expansions plus failure-cost
    /// node evaluations (diagnostics).
    pub ops: u64,
    unique_hits: u64,
    unique_misses: u64,
    ite_cache_hits: u64,
    ite_cache_misses: u64,
    gc_runs: u64,
    nodes_reclaimed: u64,
    nodes_created: u64,
    peak_live: usize,
}

impl Drop for BddManager {
    fn drop(&mut self) {
        self.flush_tallies();
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates a manager containing only the two terminal nodes.
    pub fn new() -> Self {
        let terminal = Node {
            var: u32::MAX,
            lo: Bdd::FALSE,
            hi: Bdd::FALSE,
        };
        BddManager {
            nodes: vec![terminal, terminal],
            free: Vec::new(),
            base_len: 2,
            unique: FxHashMap::default(),
            ite_cache: FxHashMap::default(),
            sat_cost: Vec::new(),
            falsify_cost: Vec::new(),
            ite_tasks: Vec::new(),
            ite_results: Vec::new(),
            walk_stack: Vec::new(),
            gc_marked: Vec::new(),
            gc_watermark: DEFAULT_GC_WATERMARK,
            budget: BddBudget::default(),
            ops: 0,
            unique_hits: 0,
            unique_misses: 0,
            ite_cache_hits: 0,
            ite_cache_misses: 0,
            gc_runs: 0,
            nodes_reclaimed: 0,
            nodes_created: 0,
            peak_live: 2,
        }
    }

    /// Folds the per-manager tallies into the process-wide registry and
    /// zeroes them. Hot paths tally plain integers (atomic-free); the fold
    /// happens once per manager *lifetime segment* — on [`Self::recycle`]
    /// and on drop. A segment that did no work flushes nothing, so
    /// `bdd.managers` counts working managers deterministically regardless
    /// of how many idle worker arenas a thread pool spins up.
    fn flush_tallies(&mut self) {
        let pristine = self.ops == 0
            && self.nodes_created == 0
            && self.unique_hits == 0
            && self.ite_cache_hits == 0
            && self.ite_cache_misses == 0
            && self.gc_runs == 0;
        if pristine {
            return;
        }
        hoyan_obs::metric!(counter "bdd.managers").inc();
        hoyan_obs::metric!(counter "bdd.ops").add(self.ops);
        hoyan_obs::metric!(counter "bdd.unique_hits").add(self.unique_hits);
        hoyan_obs::metric!(counter "bdd.unique_misses").add(self.unique_misses);
        hoyan_obs::metric!(counter "bdd.ite_cache_hits").add(self.ite_cache_hits);
        hoyan_obs::metric!(counter "bdd.ite_cache_misses").add(self.ite_cache_misses);
        hoyan_obs::metric!(counter "bdd.gc_runs").add(self.gc_runs);
        hoyan_obs::metric!(counter "bdd.nodes_reclaimed").add(self.nodes_reclaimed);
        hoyan_obs::metric!(counter "bdd.nodes_created").add(self.nodes_created);
        hoyan_obs::metric!(gauge "bdd.peak_nodes").record_max(self.peak_live as u64);
        self.ops = 0;
        self.unique_hits = 0;
        self.unique_misses = 0;
        self.ite_cache_hits = 0;
        self.ite_cache_misses = 0;
        self.gc_runs = 0;
        self.nodes_reclaimed = 0;
        self.nodes_created = 0;
    }

    /// The current per-segment tallies (see [`BddTallies`]). Cheap — a
    /// field copy; base-import work is already excluded (see
    /// [`Self::import_base`]).
    pub fn tallies(&self) -> BddTallies {
        BddTallies {
            ops: self.ops,
            unique_hits: self.unique_hits,
            unique_misses: self.unique_misses,
            ite_cache_hits: self.ite_cache_hits,
            ite_cache_misses: self.ite_cache_misses,
            gc_runs: self.gc_runs,
            nodes_reclaimed: self.nodes_reclaimed,
            nodes_created: self.nodes_created,
            peak_live: self.peak_live,
        }
    }

    /// Peak live nodes *above* the base segment, terminals included —
    /// the current segment's own peak footprint, comparable with
    /// [`Self::family_node_count`].
    pub fn family_peak_live(&self) -> usize {
        self.peak_live - (self.base_len - 2)
    }

    /// Resets the manager to its post-[`Self::import_base`] state while
    /// keeping the arena and hash-table allocations warm (to its freshly-
    /// created state when no base is installed). Flushes tallies first (a
    /// recycled segment is accounted like a dropped manager). All
    /// outstanding [`Bdd`] handles **above the base segment** are
    /// invalidated; base handles stay stable across recycles.
    ///
    /// The operation cache is dropped *entirely*, never filtered: an entry
    /// whose operands are all base handles can still hold a *result* handle
    /// allocated by the previous family, and the next family's `mk` may
    /// reuse that slot for a different node — a retained entry would then
    /// silently alias it. (Regression: `recycle_with_base_drops_op_cache`.)
    /// The failure-cost memos, by contrast, are keyed and valued by single
    /// handles, so their base-segment entries (priced once at import) are
    /// provably stable and are retained.
    pub fn recycle(&mut self) {
        self.flush_tallies();
        self.nodes.truncate(self.base_len);
        // GC never frees base slots, so every free slot is above the
        // truncation point and the list empties wholesale.
        self.free.clear();
        self.unique.clear();
        for i in 2..self.base_len {
            let n = self.nodes[i];
            self.unique.insert((n.var, n.lo, n.hi), Bdd(i as u32));
        }
        self.ite_cache.clear();
        self.sat_cost.truncate(self.base_len);
        self.falsify_cost.truncate(self.base_len);
        self.gc_watermark = DEFAULT_GC_WATERMARK.max(self.base_len * 2);
        self.budget = BddBudget::default();
        self.peak_live = self.base_len;
    }

    /// Bulk-imports `roots` (and everything below them) from `src` into
    /// this manager's permanent *base segment*, returning the translated
    /// handles in `roots` order. Must be called on a fresh or freshly-
    /// recycled manager, before any family work; callers typically do it
    /// once per sweep worker, and every family that worker runs then finds
    /// the shared conditions already interned.
    ///
    /// Base nodes are priced into both failure-cost memos here, so family
    /// queries over shared conditions hit the memo instead of re-walking.
    /// The import's tallies (node creations, unique-table traffic, pricing
    /// ops) are excluded from the per-segment counters: the number of
    /// workers — and hence base imports — depends on the thread count,
    /// and the exported counters must not (see `tests/obs_stats.rs`).
    pub fn import_base(&mut self, src: &BddManager, roots: &[Bdd]) -> Vec<Bdd> {
        let out = self.import_untallied(src, roots);
        self.base_len = self.nodes.len();
        let ops = self.ops;
        self.price_all(&out, true);
        self.price_all(&out, false);
        self.ops = ops;
        self.gc_watermark = self.gc_watermark.max(self.base_len * 2);
        self.peak_live = self.peak_live.max(self.base_len);
        out
    }

    /// Bulk-imports `roots` from `src` (one shared translation memo),
    /// returning the translated handles in `roots` order, with the work
    /// **excluded from the tallies**: a manager that only ever receives such
    /// imports stays pristine and flushes nothing. For copies whose number
    /// or timing is an artefact of scheduling rather than of the formulas
    /// built — the per-worker base import, and the IS-IS database's
    /// per-destination compaction — so the exported counters stay a pure
    /// function of the workload.
    pub fn import_untallied(&mut self, src: &BddManager, roots: &[Bdd]) -> Vec<Bdd> {
        let snap = (self.unique_hits, self.unique_misses, self.nodes_created);
        let mut memo: FxHashMap<Bdd, Bdd> = FxHashMap::default();
        let out = roots
            .iter()
            .map(|&b| self.import_into(src, b, &mut memo))
            .collect();
        (self.unique_hits, self.unique_misses, self.nodes_created) = snap;
        out
    }

    /// Arena length of the installed base segment, terminals included
    /// (2 when no base is installed).
    pub fn base_node_count(&self) -> usize {
        self.base_len
    }

    /// Live nodes allocated *above* the base segment — the current
    /// family's own footprint, terminals included so the value is
    /// comparable with [`Self::node_count`] on base-less managers.
    pub fn family_node_count(&self) -> usize {
        self.node_count() - (self.base_len - 2)
    }

    /// Installs the per-segment resource caps. [`Self::recycle`] clears them
    /// back to unlimited (a fresh segment negotiates its own budget), and
    /// zeroes `ops`, so an `max_ops` cap counts only the current family's
    /// work.
    pub fn set_budget(&mut self, budget: BddBudget) {
        self.budget = budget;
    }

    /// The currently installed caps.
    pub fn budget(&self) -> BddBudget {
        self.budget
    }

    /// Whether the installed [`BddBudget`] is exhausted. O(1); the manager
    /// never enforces the caps itself — owners poll this at safe points
    /// (like the GC check) where they can abandon the segment cleanly, so a
    /// breach surfaces as an error, not a panic mid-operation.
    pub fn budget_exceeded(&self) -> Option<BudgetBreach> {
        if let Some(limit) = self.budget.max_live_nodes {
            // The cap is per *family*: shared base nodes are resident for
            // the whole sweep and excluded, so a budget trips at the same
            // point whether or not a base is installed.
            let live = self.family_node_count();
            if live > limit {
                return Some(BudgetBreach::LiveNodes { limit, live });
            }
        }
        if let Some(limit) = self.budget.max_ops {
            if self.ops > limit {
                return Some(BudgetBreach::Ops {
                    limit,
                    ops: self.ops,
                });
            }
        }
        None
    }

    /// Number of live nodes (including terminals): arena slots minus the
    /// free list.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Alias of [`Self::node_count`], named for the GC contract.
    pub fn live_node_count(&self) -> usize {
        self.node_count()
    }

    /// Whether the live-node watermark has been reached and a [`Self::gc`]
    /// at the owner's next safe point would be worthwhile.
    pub fn should_gc(&self) -> bool {
        self.node_count() >= self.gc_watermark
    }

    /// Overrides the GC watermark (primarily for tests; clamped to ≥ 8).
    pub fn set_gc_watermark(&mut self, watermark: usize) {
        self.gc_watermark = watermark.max(8);
    }

    /// Mark-and-sweep collection. Every node reachable from `roots` (plus
    /// the terminals) survives **with its handle unchanged** — nodes are
    /// never moved, dead slots simply go on a free list for reuse. The
    /// unique table is rebuilt from the live set and the operation/cost
    /// memos are dropped (they may reference dead nodes). Returns the
    /// number of nodes reclaimed.
    ///
    /// Contract: after `gc`, any handle that was not reachable from `roots`
    /// is dangling and must not be used.
    pub fn gc<I: IntoIterator<Item = Bdd>>(&mut self, roots: I) -> usize {
        let mut marked = std::mem::take(&mut self.gc_marked);
        marked.clear();
        marked.resize(self.nodes.len(), false);
        // Terminals and the shared base segment are permanent roots. The
        // base is transitively closed (children precede parents in the
        // import), so marking the slots is enough — no traversal needed.
        marked[..self.base_len].fill(true);
        let mut stack = std::mem::take(&mut self.walk_stack);
        for r in roots {
            if !marked[r.0 as usize] {
                marked[r.0 as usize] = true;
                stack.push(r);
            }
        }
        while let Some(x) = stack.pop() {
            let n = self.nodes[x.0 as usize];
            for c in [n.lo, n.hi] {
                if !marked[c.0 as usize] {
                    marked[c.0 as usize] = true;
                    stack.push(c);
                }
            }
        }
        // Slots already on the free list from a previous collection are
        // unmarked too; rebuild the list from scratch and count only the
        // newly reclaimed difference.
        let previously_free = self.free.len();
        self.free.clear();
        self.unique.clear();
        for i in 2..self.nodes.len() {
            if marked[i] {
                let n = self.nodes[i];
                self.unique.insert((n.var, n.lo, n.hi), Bdd(i as u32));
            } else {
                self.free.push(i as u32);
            }
        }
        let reclaimed = self.free.len() - previously_free;
        self.gc_marked = marked;
        self.walk_stack = stack;
        self.ite_cache.clear();
        // Base-segment cost entries reference permanent nodes only — keep
        // them so shared conditions stay priced across collections.
        self.sat_cost.truncate(self.base_len);
        self.falsify_cost.truncate(self.base_len);
        self.gc_runs += 1;
        self.nodes_reclaimed += reclaimed as u64;
        self.gc_watermark = self.gc_watermark.max(self.node_count() * 2);
        reclaimed
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        // One probe serves both the lookup and, on a miss, the insertion.
        let vacant = match self.unique.entry((var, lo, hi)) {
            Entry::Occupied(hit) => {
                self.unique_hits += 1;
                return *hit.get();
            }
            Entry::Vacant(vacant) => vacant,
        };
        self.unique_misses += 1;
        self.nodes_created += 1;
        let node = Node { var, lo, hi };
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                Bdd(slot)
            }
            None => {
                let id = Bdd(self.nodes.len() as u32);
                self.nodes.push(node);
                id
            }
        };
        vacant.insert(id);
        let live = self.nodes.len() - self.free.len();
        if live > self.peak_live {
            self.peak_live = live;
        }
        id
    }

    /// The BDD for "variable `v` is true" (link `v` is alive).
    pub fn var(&mut self, v: u32) -> Bdd {
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The BDD for "variable `v` is false" (link `v` is down).
    pub fn nvar(&mut self, v: u32) -> Bdd {
        self.mk(v, Bdd::TRUE, Bdd::FALSE)
    }

    /// The if-then-else apply kernel: computes the BDD for
    /// `(f ∧ g) ∨ (¬f ∧ h)` without recursion, memoized in the unified
    /// operation cache. Every public connective is a thin wrapper over this.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        let mut tasks = std::mem::take(&mut self.ite_tasks);
        let mut results = std::mem::take(&mut self.ite_results);
        tasks.push(IteFrame::Solve(f, g, h));
        while let Some(frame) = tasks.pop() {
            match frame {
                IteFrame::Solve(mut f, mut g, mut h) => {
                    // ite(f, f, h) = ite(f, T, h) and ite(f, g, f) =
                    // ite(f, g, F): fold the test into the branches.
                    if g == f {
                        g = Bdd::TRUE;
                    }
                    if h == f {
                        h = Bdd::FALSE;
                    }
                    // ∧ and ∨ are commutative: order the operands so both
                    // argument orders share one cache entry.
                    if h.is_false() && !g.is_const() && g < f {
                        std::mem::swap(&mut f, &mut g);
                    }
                    if g.is_true() && !h.is_const() && h < f {
                        std::mem::swap(&mut f, &mut h);
                    }
                    let terminal = if f.is_true() {
                        Some(g)
                    } else if f.is_false() {
                        Some(h)
                    } else if g == h {
                        Some(g)
                    } else if g.is_true() && h.is_false() {
                        Some(f)
                    } else {
                        None
                    };
                    if let Some(r) = terminal {
                        results.push(r);
                        continue;
                    }
                    let key = (f, g, h);
                    if let Some(&r) = self.ite_cache.get(&key) {
                        self.ite_cache_hits += 1;
                        results.push(r);
                        continue;
                    }
                    self.ite_cache_misses += 1;
                    self.ops += 1;
                    // Shannon cofactors at the minimum top variable: an
                    // operand whose own top variable is greater does not
                    // depend on it (terminals sort last, `u32::MAX`).
                    let (nf, ng, nh) = (
                        self.nodes[f.0 as usize],
                        self.nodes[g.0 as usize],
                        self.nodes[h.0 as usize],
                    );
                    let var = nf.var.min(ng.var).min(nh.var);
                    let split = |b: Bdd, n: Node| if n.var == var { (n.lo, n.hi) } else { (b, b) };
                    let (f0, f1) = split(f, nf);
                    let (g0, g1) = split(g, ng);
                    let (h0, h1) = split(h, nh);
                    tasks.push(IteFrame::Reduce { key, var });
                    tasks.push(IteFrame::Solve(f1, g1, h1));
                    tasks.push(IteFrame::Solve(f0, g0, h0));
                }
                IteFrame::Reduce { key, var } => {
                    // LIFO: the hi-cofactor solve finished last.
                    let hi = results.pop().expect("hi cofactor result");
                    let lo = results.pop().expect("lo cofactor result");
                    let r = self.mk(var, lo, hi);
                    self.ite_cache.insert(key, r);
                    results.push(r);
                }
            }
        }
        debug_assert_eq!(results.len(), 1);
        let r = results.pop().expect("ite result");
        self.ite_tasks = tasks;
        self.ite_results = results;
        r
    }

    /// Logical negation.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        self.ite(a, Bdd::FALSE, Bdd::TRUE)
    }

    /// Logical conjunction.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.ite(a, b, Bdd::FALSE)
    }

    /// Logical disjunction.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.ite(a, Bdd::TRUE, b)
    }

    /// `a && !b`, as the single call `ite(b, F, a)`.
    pub fn and_not(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.ite(b, Bdd::FALSE, a)
    }

    /// Logical implication `a -> b`.
    pub fn implies(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.ite(a, b, Bdd::TRUE)
    }

    /// Logical biconditional `a <-> b`.
    pub fn iff(&mut self, a: Bdd, b: Bdd) -> Bdd {
        let nb = self.not(b);
        self.ite(a, b, nb)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd {
        let nb = self.not(b);
        self.ite(a, nb, b)
    }

    /// Conjunction over an iterator; `TRUE` for the empty sequence.
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::TRUE;
        for b in items {
            acc = self.and(acc, b);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction over an iterator; `FALSE` for the empty sequence.
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::FALSE;
        for b in items {
            acc = self.or(acc, b);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Disjunction with *failure-budget saturation*: the accumulation stops
    /// and returns `TRUE` as soon as the partial disjunction can no longer
    /// be falsified by at most `k` link failures — within the `≤ k`-failure
    /// ball the two are equivalent, and the saturated form stays small
    /// (ECMP-rich topologies otherwise produce exponentially large
    /// monotone-DNF BDDs). Pass `k = None` for the exact disjunction.
    ///
    /// The saturation check is incremental: falsifying `acc ∨ b` falsifies
    /// `b`, so `min_failures_to_falsify(acc ∨ b) ≥ min_failures_to_falsify(b)`
    /// and a single `>k`-robust disjunct saturates the whole disjunction
    /// without materializing it; the accumulator check itself only walks
    /// nodes the persistent cost memo has not priced yet.
    pub fn or_all_within<I: IntoIterator<Item = Bdd>>(&mut self, items: I, k: Option<u32>) -> Bdd {
        let Some(k) = k else {
            return self.or_all(items);
        };
        let mut acc = Bdd::FALSE;
        for b in items {
            if self.min_failures_to_falsify(b) > k {
                return Bdd::TRUE;
            }
            acc = self.or(acc, b);
            if acc.is_true() {
                break;
            }
            if self.min_failures_to_falsify(acc) > k {
                return Bdd::TRUE;
            }
        }
        acc
    }

    /// Evaluates a BDD under a total assignment (`assignment[v]` = variable
    /// `v` is true). Variables beyond the slice default to `true`, matching
    /// the "all links alive" baseline of topology conditions.
    pub fn eval(&self, mut b: Bdd, assignment: &[bool]) -> bool {
        while !b.is_const() {
            let n = self.nodes[b.0 as usize];
            let value = assignment.get(n.var as usize).copied().unwrap_or(true);
            b = if value { n.hi } else { n.lo };
        }
        b.is_true()
    }

    /// Number of distinct nodes reachable from `b` — the "formula length"
    /// metric reported in Figures 11 and 13. Terminals are counted exactly:
    /// a constant is 1 node, and a non-constant formula counts each of the
    /// (one or two) terminals it actually reaches.
    pub fn size(&self, b: Bdd) -> usize {
        if b.is_const() {
            return 1;
        }
        SIZE_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let SizeScratch {
                stamps,
                generation,
                stack,
            } = &mut *scratch;
            if stamps.len() < self.nodes.len() {
                stamps.resize(self.nodes.len(), 0);
            }
            *generation = generation.wrapping_add(1);
            if *generation == 0 {
                // Wrapped: stamps from 2^32 calls ago would read as current.
                stamps.fill(0);
                *generation = 1;
            }
            let mut internal = 0;
            let mut terminals = [false; 2];
            stack.push(b);
            while let Some(x) = stack.pop() {
                if x.is_const() {
                    terminals[x.0 as usize] = true;
                    continue;
                }
                let stamp = &mut stamps[x.0 as usize];
                if *stamp == *generation {
                    continue;
                }
                *stamp = *generation;
                internal += 1;
                let n = self.nodes[x.0 as usize];
                stack.push(n.lo);
                stack.push(n.hi);
            }
            internal + terminals.iter().filter(|&&t| t).count()
        })
    }

    /// The distinct variables `b` depends on, ascending.
    pub fn support(&self, b: Bdd) -> Vec<u32> {
        let mut vars = std::collections::BTreeSet::new();
        let mut seen: FxHashSet<Bdd> = FxHashSet::default();
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x) {
                continue;
            }
            let n = self.nodes[x.0 as usize];
            vars.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        vars.into_iter().collect()
    }

    /// Shared iterative engine for the two failure-cost queries: a
    /// bottom-up dynamic program where taking a node's false-branch costs 1
    /// and the terminals are priced by `terminal_cost`. Each node is priced
    /// once per manager lifetime (the memo persists across calls and is
    /// dropped only by GC/recycle); newly priced nodes count toward
    /// [`Self::ops`].
    fn min_failures(&mut self, b: Bdd, falsify: bool) -> u32 {
        self.price_all(std::slice::from_ref(&b), falsify);
        self.priced(b, falsify).expect("price_all priced the root")
    }

    /// The memoized cost of `b`, terminals included; `None` when `b` has
    /// not been priced (in this direction) since the last GC/recycle.
    #[inline]
    fn priced(&self, b: Bdd, falsify: bool) -> Option<u32> {
        if b.is_const() {
            return Some(terminal_cost(b, falsify));
        }
        let memo = if falsify {
            &self.falsify_cost
        } else {
            &self.sat_cost
        };
        memo.get(b.0 as usize).copied().filter(|&c| c != UNPRICED)
    }

    /// The DP core of the failure-cost queries: prices every node reachable
    /// from `roots` into the persistent memo, seeding one stack with all
    /// the roots so substructure shared *across* roots is walked once.
    fn price_all(&mut self, roots: &[Bdd], falsify: bool) {
        if roots.iter().all(|&b| self.priced(b, falsify).is_some()) {
            return;
        }
        // Temporarily move the memo out so the borrow checker lets us read
        // `self.nodes` and bump `self.ops` while writing into it.
        let mut memo = std::mem::take(if falsify {
            &mut self.falsify_cost
        } else {
            &mut self.sat_cost
        });
        memo.resize(self.nodes.len(), UNPRICED);
        let mut stack = std::mem::take(&mut self.walk_stack);
        stack.extend(roots.iter().copied().filter(|b| !b.is_const()));
        while let Some(&x) = stack.last() {
            if memo[x.0 as usize] != UNPRICED {
                stack.pop();
                continue;
            }
            let n = self.nodes[x.0 as usize];
            let resolve = |c: Bdd, memo: &[u32]| {
                if c.is_const() {
                    Some(terminal_cost(c, falsify))
                } else {
                    Some(memo[c.0 as usize]).filter(|&c| c != UNPRICED)
                }
            };
            match (resolve(n.lo, &memo), resolve(n.hi, &memo)) {
                (Some(lo), Some(hi)) => {
                    memo[x.0 as usize] = hi.min(lo.saturating_add(1));
                    self.ops += 1;
                    stack.pop();
                }
                (lo, hi) => {
                    if hi.is_none() {
                        stack.push(n.hi);
                    }
                    if lo.is_none() {
                        stack.push(n.lo);
                    }
                }
            }
        }
        self.walk_stack = stack;
        if falsify {
            self.falsify_cost = memo;
        } else {
            self.sat_cost = memo;
        }
    }

    /// Batch form of [`Self::min_failures_to_falsify`]: one traversal
    /// prices every root (per-family reachability verdicts for all devices
    /// at once), so BDD structure shared between the per-device conditions
    /// of a family is walked exactly once instead of once per query.
    /// Op accounting is identical to issuing the queries one by one —
    /// each *node* is priced once either way — so budgets and counters do
    /// not depend on how queries are batched.
    pub fn min_failures_to_falsify_many(&mut self, roots: &[Bdd]) -> Vec<u32> {
        self.price_all(roots, true);
        roots
            .iter()
            .map(|&b| self.priced(b, true).expect("price_all priced every root"))
            .collect()
    }

    /// Minimum number of variables that must be **false** (links down) in
    /// some satisfying assignment of `b`. Returns [`INF_FAILURES`] when `b`
    /// is unsatisfiable.
    ///
    /// A condition with `min_failures_to_satisfy > k` can only hold when
    /// more than `k` links have failed, so the branch carrying it is pruned
    /// during a `k`-failure simulation (§5.6, "dropping more-than-k-failure
    /// conditions").
    pub fn min_failures_to_satisfy(&mut self, b: Bdd) -> u32 {
        self.min_failures(b, false)
    }

    /// Minimum number of variables that must be **false** to falsify `b`.
    /// Returns [`INF_FAILURES`] when `b` is a tautology *restricted to
    /// all-other-variables-true* — i.e. no set of link failures can falsify
    /// it.
    ///
    /// This answers the paper's availability query: a destination is
    /// reachable under every `≤ k`-failure scenario iff the disjunction `V`
    /// of its RIB-rule conditions has `min_failures_to_falsify(V) > k`.
    pub fn min_failures_to_falsify(&mut self, b: Bdd) -> u32 {
        self.min_failures(b, true)
    }

    /// A concrete minimal failure set (links to bring down) that falsifies
    /// `b`, or `None` if no failure set can. Unmentioned variables stay up.
    pub fn min_falsifying_failures(&mut self, b: Bdd) -> Option<Vec<u32>> {
        if self.min_failures_to_falsify(b) == INF_FAILURES {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = b;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            let hi = self.min_failures_to_falsify(n.hi);
            let lo = self.min_failures_to_falsify(n.lo);
            if hi <= lo.saturating_add(1) {
                cur = n.hi;
            } else {
                out.push(n.var);
                cur = n.lo;
            }
        }
        debug_assert!(cur.is_false());
        Some(out)
    }

    /// A concrete minimal failure set under which `b` holds, or `None` if
    /// unsatisfiable.
    pub fn min_satisfying_failures(&mut self, b: Bdd) -> Option<Vec<u32>> {
        if self.min_failures_to_satisfy(b) == INF_FAILURES {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = b;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            let hi = self.min_failures_to_satisfy(n.hi);
            let lo = self.min_failures_to_satisfy(n.lo);
            if hi <= lo.saturating_add(1) {
                cur = n.hi;
            } else {
                out.push(n.var);
                cur = n.lo;
            }
        }
        debug_assert!(cur.is_true());
        Some(out)
    }

    /// The `(var, lo, hi)` triple of an internal node, or `None` for the
    /// terminals. Exposed for cross-manager transfer.
    pub fn node_triple(&self, b: Bdd) -> Option<(u32, Bdd, Bdd)> {
        if b.is_const() {
            return None;
        }
        let n = self.nodes[b.0 as usize];
        Some((n.var, n.lo, n.hi))
    }

    /// Imports a BDD built in another manager into this one. Variable
    /// indices are preserved (they denote the same links network-wide).
    /// Iterative: safe for chain-shaped conditions of any depth.
    pub fn import(&mut self, src: &BddManager, b: Bdd) -> Bdd {
        let mut memo: FxHashMap<Bdd, Bdd> = FxHashMap::default();
        self.import_into(src, b, &mut memo)
    }

    /// [`Self::import`] with a caller-owned translation memo, so a batch of
    /// imports from the same source ([`Self::import_base`]) shares work.
    fn import_into(&mut self, src: &BddManager, b: Bdd, memo: &mut FxHashMap<Bdd, Bdd>) -> Bdd {
        if b.is_const() {
            return b;
        }
        let mut stack = vec![b];
        while let Some(&x) = stack.last() {
            if memo.contains_key(&x) {
                stack.pop();
                continue;
            }
            let (var, lo, hi) = src.node_triple(x).expect("non-const node");
            let resolve = |c: Bdd, memo: &FxHashMap<Bdd, Bdd>| {
                if c.is_const() {
                    Some(c)
                } else {
                    memo.get(&c).copied()
                }
            };
            match (resolve(lo, &memo), resolve(hi, &memo)) {
                (Some(l), Some(h)) => {
                    let r = self.mk(var, l, h);
                    memo.insert(x, r);
                    stack.pop();
                }
                (l, h) => {
                    if h.is_none() {
                        stack.push(hi);
                    }
                    if l.is_none() {
                        stack.push(lo);
                    }
                }
            }
        }
        memo[&b]
    }

    /// Restricts `b` by fixing variable `v` to `value`. Iterative and
    /// memoized per call, so shared subgraphs are rebuilt once.
    pub fn restrict(&mut self, b: Bdd, v: u32, value: bool) -> Bdd {
        if b.is_const() {
            return b;
        }
        let mut memo: FxHashMap<Bdd, Bdd> = FxHashMap::default();
        let mut stack = vec![b];
        while let Some(&x) = stack.last() {
            if memo.contains_key(&x) {
                stack.pop();
                continue;
            }
            let n = self.nodes[x.0 as usize];
            if n.var > v {
                // Ordering: nothing below mentions `v`.
                memo.insert(x, x);
                stack.pop();
                continue;
            }
            if n.var == v {
                memo.insert(x, if value { n.hi } else { n.lo });
                stack.pop();
                continue;
            }
            let resolve = |c: Bdd, memo: &FxHashMap<Bdd, Bdd>| {
                if c.is_const() {
                    Some(c)
                } else {
                    memo.get(&c).copied()
                }
            };
            match (resolve(n.lo, &memo), resolve(n.hi, &memo)) {
                (Some(l), Some(h)) => {
                    let r = self.mk(n.var, l, h);
                    memo.insert(x, r);
                    stack.pop();
                }
                (l, h) => {
                    if h.is_none() {
                        stack.push(n.hi);
                    }
                    if l.is_none() {
                        stack.push(n.lo);
                    }
                }
            }
        }
        memo[&b]
    }

    /// Counts satisfying assignments over `nvars` variables, saturating at
    /// `u128::MAX`. Real WANs exceed 127 links, where the exact count no
    /// longer fits; a saturated value means "at least `u128::MAX`" and keeps
    /// relative comparisons against smaller counts meaningful.
    pub fn count_models(&self, b: Bdd, nvars: u32) -> u128 {
        #[inline]
        fn shl_sat(c: u128, gap: u32) -> u128 {
            if c == 0 {
                0
            } else if gap >= 128 || c > (u128::MAX >> gap) {
                u128::MAX
            } else {
                c << gap
            }
        }
        let terminal = |b: Bdd| -> Option<u128> {
            match b {
                Bdd::FALSE => Some(0),
                Bdd::TRUE => Some(1),
                _ => None,
            }
        };
        let mut cache: FxHashMap<Bdd, u128> = FxHashMap::default();
        if !b.is_const() {
            let mut stack = vec![b];
            while let Some(&x) = stack.last() {
                if cache.contains_key(&x) {
                    stack.pop();
                    continue;
                }
                let n = self.nodes[x.0 as usize];
                let resolve = |c: Bdd, cache: &FxHashMap<Bdd, u128>| {
                    terminal(c).or_else(|| cache.get(&c).copied())
                };
                match (resolve(n.lo, &cache), resolve(n.hi, &cache)) {
                    (Some(lo), Some(hi)) => {
                        // Each skipped variable level doubles the count.
                        let c = shl_sat(lo, self.gap(n.lo, n.var, nvars))
                            .saturating_add(shl_sat(hi, self.gap(n.hi, n.var, nvars)));
                        cache.insert(x, c);
                        stack.pop();
                    }
                    (lo, hi) => {
                        if hi.is_none() {
                            stack.push(n.hi);
                        }
                        if lo.is_none() {
                            stack.push(n.lo);
                        }
                    }
                }
            }
        }
        let c = terminal(b).unwrap_or_else(|| cache[&b]);
        let top_var = if b.is_const() {
            nvars
        } else {
            self.nodes[b.0 as usize].var
        };
        shl_sat(c, top_var.min(nvars))
    }

    fn gap(&self, child: Bdd, parent_var: u32, nvars: u32) -> u32 {
        let child_var = if child.is_const() {
            nvars
        } else {
            self.nodes[child.0 as usize].var
        };
        child_var.saturating_sub(parent_var + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let mut m = BddManager::new();
        assert!(Bdd::TRUE.is_true() && Bdd::FALSE.is_false());
        assert_eq!(m.and(Bdd::TRUE, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(Bdd::TRUE, Bdd::FALSE), Bdd::TRUE);
        assert_eq!(m.not(Bdd::TRUE), Bdd::FALSE);
    }

    #[test]
    fn hash_consing_is_canonical() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab, ba);
        // (a & b) | (a & !b) == a
        let nb = m.not(b);
        let anb = m.and(a, nb);
        let u = m.or(ab, anb);
        assert_eq!(u, a);
    }

    #[test]
    fn ite_is_shannon_expansion() {
        let mut m = BddManager::new();
        let f = m.var(0);
        let g = m.var(1);
        let h = m.var(2);
        let r = m.ite(f, g, h);
        for bits in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            let expect = if assign[0] { assign[1] } else { assign[2] };
            assert_eq!(m.eval(r, &assign), expect, "assign {assign:?}");
        }
    }

    #[test]
    fn contradiction_and_tautology_collapse() {
        let mut m = BddManager::new();
        let a = m.var(3);
        let na = m.not(a);
        assert_eq!(m.and(a, na), Bdd::FALSE);
        assert_eq!(m.or(a, na), Bdd::TRUE);
        let t = m.implies(a, a);
        assert!(t.is_true());
    }

    #[test]
    fn eval_defaults_to_alive() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(9);
        let f = m.and(a, b);
        // Unlisted variables default to true.
        assert!(m.eval(f, &[]));
        assert!(!m.eval(f, &[false]));
        assert!(m.eval(f, &[true, false, false]));
    }

    #[test]
    fn paper_figure4_example() {
        // D's RIB for subnet N: V = (a1&a4) | (!a1 & a2 & a3 & a4).
        // The paper observes a4=false falsifies V — one failure suffices.
        let mut m = BddManager::new();
        let a1 = m.var(1);
        let a2 = m.var(2);
        let a3 = m.var(3);
        let a4 = m.var(4);
        let r3 = m.and(a1, a4);
        let na1 = m.not(a1);
        let r4 = m.and_all([na1, a2, a3, a4]);
        let v = m.or(r3, r4);
        assert_eq!(m.min_failures_to_falsify(v), 1);
        assert_eq!(m.min_falsifying_failures(v), Some(vec![4]));
        // With all links alive V holds.
        assert!(m.eval(v, &[]));
        // r4 requires a1 down: needs exactly one failure to be satisfiable.
        assert_eq!(m.min_failures_to_satisfy(r4), 1);
        // r3 holds with zero failures.
        assert_eq!(m.min_failures_to_satisfy(r3), 0);
    }

    #[test]
    fn min_failures_extremes() {
        let mut m = BddManager::new();
        assert_eq!(m.min_failures_to_satisfy(Bdd::FALSE), INF_FAILURES);
        assert_eq!(m.min_failures_to_satisfy(Bdd::TRUE), 0);
        assert_eq!(m.min_failures_to_falsify(Bdd::TRUE), INF_FAILURES);
        assert_eq!(m.min_failures_to_falsify(Bdd::FALSE), 0);
        // !a1 & !a2 needs two failures to hold.
        let n1 = m.nvar(1);
        let n2 = m.nvar(2);
        let f = m.and(n1, n2);
        assert_eq!(m.min_failures_to_satisfy(f), 2);
        assert_eq!(m.min_satisfying_failures(f), Some(vec![1, 2]));
        // a1 | a2 needs two failures to falsify.
        let a1 = m.var(1);
        let a2 = m.var(2);
        let g = m.or(a1, a2);
        assert_eq!(m.min_failures_to_falsify(g), 2);
    }

    #[test]
    fn restrict_fixes_variables() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        let f_a_false = m.restrict(f, 0, false);
        assert_eq!(f_a_false, b);
        let f_a_true = m.restrict(f, 0, true);
        assert!(f_a_true.is_true());
    }

    #[test]
    fn size_counts_nodes_and_reachable_terminals() {
        let mut m = BddManager::new();
        assert_eq!(m.size(Bdd::TRUE), 1);
        assert_eq!(m.size(Bdd::FALSE), 1);
        // A single variable reaches both terminals: 1 internal + 2 terminals.
        let a = m.var(0);
        assert_eq!(m.size(a), 3);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert_eq!(m.size(ab), 4);
    }

    #[test]
    fn support_lists_dependencies() {
        let mut m = BddManager::new();
        let a = m.var(2);
        let b = m.var(7);
        let f = m.xor(a, b);
        assert_eq!(m.support(f), vec![2, 7]);
        assert!(m.support(Bdd::TRUE).is_empty());
    }

    #[test]
    fn count_models_small() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        assert_eq!(m.count_models(f, 2), 3);
        let g = m.and(a, b);
        assert_eq!(m.count_models(g, 2), 1);
        assert_eq!(m.count_models(Bdd::TRUE, 3), 8);
        assert_eq!(m.count_models(Bdd::FALSE, 3), 0);
        // Single var over 3 vars: 4 models.
        assert_eq!(m.count_models(a, 3), 4);
        let c = m.var(2);
        assert_eq!(m.count_models(c, 3), 4);
    }

    #[test]
    fn count_models_saturates_beyond_127_vars() {
        // Regression: `1u128 << gap` used to overflow (panic in debug) for
        // networks with more than 127 links. 200 variables must saturate,
        // not panic or wrap.
        let mut m = BddManager::new();
        const NVARS: u32 = 200;
        let a = m.var(0);
        assert_eq!(m.count_models(a, NVARS), u128::MAX, "2^199 saturates");
        assert_eq!(m.count_models(Bdd::TRUE, NVARS), u128::MAX);
        assert_eq!(m.count_models(Bdd::FALSE, NVARS), 0);
        // A conjunction of all 200 variables has exactly one model — small
        // counts must stay exact even when the variable count is huge.
        let vars: Vec<Bdd> = (0..NVARS).map(|v| m.var(v)).collect();
        let all = m.and_all(vars);
        assert_eq!(m.count_models(all, NVARS), 1);
        // ...and a saturated and an exact count still compare correctly.
        assert!(m.count_models(all, NVARS) < m.count_models(a, NVARS));
    }

    #[test]
    fn import_preserves_semantics() {
        let mut src = BddManager::new();
        let a = src.var(1);
        let b = src.var(3);
        let nb = src.not(b);
        let f = src.or(a, nb);
        let mut dst = BddManager::new();
        // Pre-populate dst differently so node ids diverge.
        let _ = dst.var(7);
        let g = dst.import(&src, f);
        for bits in 0..16u32 {
            let assign: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(src.eval(f, &assign), dst.eval(g, &assign));
        }
        assert_eq!(dst.import(&src, Bdd::TRUE), Bdd::TRUE);
    }

    #[test]
    fn and_or_all() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(i)).collect();
        let all = m.and_all(vars.iter().copied());
        assert_eq!(m.min_failures_to_falsify(all), 1);
        let any = m.or_all(vars.iter().copied());
        assert_eq!(m.min_failures_to_falsify(any), 4);
        assert!(m.and_all(std::iter::empty()).is_true());
        assert!(m.or_all(std::iter::empty()).is_false());
    }

    #[test]
    fn or_all_within_saturation_is_incremental() {
        // 48 disjoint two-link paths; the union's falsify cost climbs by one
        // per disjunct and crosses k = 47 on the last one. The De Morgan
        // engine spent 9,408 ops on this workload (measured before the ITE
        // rewrite); the unified kernel with incremental saturation must stay
        // far below that even while pricing every accumulator.
        let mut m = BddManager::new();
        let paths: Vec<Bdd> = (0..48u32)
            .map(|i| {
                let x = m.var(2 * i);
                let y = m.var(2 * i + 1);
                m.and(x, y)
            })
            .collect();
        let before = m.ops;
        let acc = m.or_all_within(paths, Some(47));
        assert!(
            acc.is_true(),
            "48 disjoint paths exceed a 47-failure budget"
        );
        let spent = m.ops - before;
        // The ITE engine measures 4,608 here: the disjoint-path union BDD is
        // a chain that inherently rebuilds per disjunct, but single-pass
        // disjunction plus memo-incremental pricing halves the old cost.
        assert!(
            spent < 5_000,
            "or_all_within spent {spent} ops — saturation check regressed \
             (old engine: 9,408)"
        );
    }

    #[test]
    fn gc_keeps_rooted_reclaims_garbage() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let keep = m.and(a, b);
        let drop1 = m.xor(a, b);
        let extra: Vec<Bdd> = (2..40).map(|v| m.var(v)).collect();
        let drop2 = m.or_all(extra);
        let before = m.node_count();
        let reclaimed = m.gc([keep]);
        assert!(reclaimed > 0, "xor/or chain garbage must be reclaimed");
        assert_eq!(m.node_count(), before - reclaimed);
        let _ = (drop1, drop2); // dangling after gc — not dereferenced
                                // Rooted handles still mean the same function.
        assert!(m.eval(keep, &[true, true]));
        assert!(!m.eval(keep, &[true, false]));
        // The arena stays consistent: new work reuses freed slots.
        let c = m.var(2);
        let kc = m.and(keep, c);
        assert!(m.eval(kc, &[true, true, true]));
        assert!(!m.eval(kc, &[true, true, false]));
    }

    #[test]
    fn recycle_resets_to_fresh_state() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..16).map(|v| m.var(v)).collect();
        let _ = m.or_all(vars);
        assert!(m.node_count() > 2);
        m.recycle();
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.ops, 0);
        // The manager is fully usable again.
        let a = m.var(0);
        let na = m.not(a);
        assert_eq!(m.and(a, na), Bdd::FALSE);
    }

    #[test]
    fn import_base_survives_gc_and_recycle() {
        let mut src = BddManager::new();
        let a = src.var(0);
        let b = src.var(1);
        let ab = src.and(a, b);
        let mut m = BddManager::new();
        let base = m.import_base(&src, &[a, b, ab]);
        let base_count = m.base_node_count();
        assert!(base_count > 2, "base segment holds the imported nodes");
        assert_eq!(m.node_count(), base_count);
        // Family work on top of the base.
        let c = m.var(5);
        let f = m.and(base[2], c);
        // GC rooted only at the family node: the base must survive anyway.
        m.gc([f]);
        assert!(m.eval(base[2], &[true, true]));
        assert!(!m.eval(base[2], &[true, false]));
        assert!(m.eval(f, &[true, true, true, true, true, true]));
        // Recycle drops the family, keeps the base, and re-interns it: the
        // next segment re-derives the very same handles.
        m.recycle();
        assert_eq!(m.node_count(), base_count);
        assert_eq!(m.var(0), base[0]);
        assert_eq!(m.var(1), base[1]);
        let a2 = m.var(0);
        let b2 = m.var(1);
        assert_eq!(m.and(a2, b2), base[2]);
    }

    #[test]
    fn recycle_with_base_drops_op_cache() {
        // The latent-bug regression: with a base installed, recycle keeps
        // arena slots below `base_len` — so a retained op-cache entry keyed
        // by base handles but holding a dead *family* result handle would
        // alias whatever node the next family allocates in that slot. The
        // cache must therefore start cold every segment; pin it via the
        // hit/miss tallies.
        let mut src = BddManager::new();
        let vars: Vec<Bdd> = (0..4).map(|v| src.var(v)).collect();
        let mut m = BddManager::new();
        let base = m.import_base(&src, &vars);
        let f1 = m.and(base[0], base[1]);
        assert!(!f1.is_const() && f1.0 as usize >= m.base_node_count());
        let hits = m.ite_cache_hits;
        assert_eq!(m.and(base[0], base[1]), f1);
        assert_eq!(m.ite_cache_hits, hits + 1, "warm cache within a segment");
        m.recycle();
        assert_eq!(m.ite_cache_hits, 0, "tallies zeroed by recycle");
        let f2 = m.and(base[0], base[1]);
        assert_eq!(f2, f1, "same function re-interns to the same slot");
        assert_eq!(m.ite_cache_hits, 0, "no stale hit across recycle");
        assert_eq!(
            m.ite_cache_misses, 1,
            "the first post-recycle ITE must miss the (cleared) cache"
        );
        // And the unique table was rebuilt from the base: re-deriving base
        // vars is a pure hit, not a node creation.
        let created = m.nodes_created;
        let _ = m.var(2);
        assert_eq!(m.nodes_created, created, "base vars are pre-interned");
    }

    #[test]
    fn import_base_prices_nodes_and_excludes_tallies() {
        let mut src = BddManager::new();
        let a = src.var(0);
        let b = src.var(1);
        let ab = src.and(a, b);
        let mut m = BddManager::new();
        let base = m.import_base(&src, &[ab]);
        // The import's work is excluded from the per-segment tallies, so a
        // worker that imports a base but never runs a family stays pristine
        // (counter determinism across thread counts).
        assert_eq!(m.ops, 0);
        assert_eq!(m.nodes_created, 0);
        // Base nodes arrive pre-priced: the first failure-cost query walks
        // nothing new and costs zero ops.
        assert_eq!(m.min_failures_to_falsify(base[0]), 1);
        assert_eq!(m.min_failures_to_satisfy(base[0]), 0);
        assert_eq!(m.ops, 0, "base conditions are priced at import time");
    }

    #[test]
    fn min_failures_to_falsify_many_matches_singles() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.or(a, b);
        let abc = m.and(ab, c);
        let roots = [abc, ab, a, Bdd::TRUE, Bdd::FALSE];
        let batch = m.min_failures_to_falsify_many(&roots);
        let singles: Vec<u32> = roots
            .iter()
            .map(|&r| m.min_failures_to_falsify(r))
            .collect();
        assert_eq!(batch, singles);
        assert_eq!(batch, vec![1, 2, 1, INF_FAILURES, 0]);
        // Op accounting is batch-invariant: everything is in the memo now,
        // so a second batch prices nothing.
        let before = m.ops;
        let again = m.min_failures_to_falsify_many(&roots);
        assert_eq!(again, batch);
        assert_eq!(m.ops, before);
    }

    #[test]
    fn node_budget_counts_family_nodes_not_base() {
        let mut src = BddManager::new();
        let chain: Vec<Bdd> = (0..32).map(|v| src.var(v)).collect();
        let big = src.and_all(chain.iter().copied());
        let mut m = BddManager::new();
        let _ = m.import_base(&src, &[big]);
        m.set_budget(BddBudget {
            max_live_nodes: Some(8),
            max_ops: None,
        });
        // The 30+-node base alone must not trip an 8-node family cap.
        assert_eq!(m.family_node_count(), 2);
        assert!(m.budget_exceeded().is_none());
        let fam: Vec<Bdd> = (40..52).map(|v| m.var(v)).collect();
        let _ = m.and_all(fam);
        assert!(matches!(
            m.budget_exceeded(),
            Some(BudgetBreach::LiveNodes { limit: 8, .. })
        ));
    }

    #[test]
    fn watermark_policy_grows_after_gc() {
        let mut m = BddManager::new();
        m.set_gc_watermark(8);
        let vars: Vec<Bdd> = (0..8).map(|v| m.var(v)).collect();
        let keep = m.and_all(vars.iter().copied());
        assert!(m.should_gc());
        m.gc([keep]);
        // Watermark is now at least twice the live set: not worth re-running
        // immediately.
        assert!(!m.should_gc());
    }
}
