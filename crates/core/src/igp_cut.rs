//! Small edge cuts of the IGP graph, for [`crate::isis::IsisDb`]'s session
//! conditions.
//!
//! The IGP has no policy, so `u` has an IGP route to `v` under a failure
//! set `F` iff `u` and `v` stay connected once `F`'s links are removed. With
//! `|F| <= k`, that fails iff `F` contains a minimal `u`–`v` edge cut of at
//! most `k` links. A minimal `u`–`v` cut is a *bond* — a cut `δ(S)` whose
//! sides `S` and `V \ S` are both connected — and every bond separating `u`
//! from `v` is a minimal `u`–`v` cut, so the bonds of size `<= k` are all a
//! `reach` row needs.
//!
//! Three observations keep the enumeration small:
//!
//! - **Classes.** `λ(u, v) > k` (edge connectivity) is an equivalence
//!   relation, and no cut of at most `k` links separates two nodes of one
//!   class. So the bonds of size `<= k` are those of the quotient graph that
//!   contracts each class to a vertex, and `u`'s row toward `v` depends only
//!   on the two classes. On the generated WANs the well-meshed core is one
//!   class at `k <= 3`.
//! - **Bridges.** In a bond `C`, every link `b ∈ C` is a bridge of the graph
//!   without `C \ {b}`, and `C \ {b}` disconnects nothing. So every bond of
//!   size `<= k` is found as `R ∪ {b}`: `R` a connectivity-preserving set of
//!   at most `k - 1` links, `b` a bridge of the graph without `R` whose sides
//!   `R` also crosses. Taking `b` above every link of `R` finds each bond
//!   once.
//! - **Blocks.** Any two links of a bond lie on a common cycle (join their
//!   ends by a path on each side), so a bond lies inside one biconnected
//!   block, and `R` only combines links of one block. A dual-homed router
//!   whose two links reach one class is a block of its own, so the
//!   enumeration does not pair its links with anyone else's.

/// An undirected multigraph: `edges[e] = (a, b)`, and per node its
/// `(peer, edge)` incidences.
pub(crate) struct Graph {
    edges: Vec<(u32, u32)>,
    adj: Vec<Vec<(u32, u32)>>,
}

impl Graph {
    /// A graph on `n` nodes with `edges`, indexed by position.
    pub(crate) fn new(n: usize, edges: Vec<(u32, u32)>) -> Graph {
        let mut adj = vec![Vec::new(); n];
        for (e, &(a, b)) in edges.iter().enumerate() {
            adj[a as usize].push((b, e as u32));
            adj[b as usize].push((a, e as u32));
        }
        Graph { edges, adj }
    }

    fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Edge visits of one pass over the graph.
    fn pass_cost(&self) -> u64 {
        (self.node_count() + 2 * self.edges.len()) as u64
    }

    /// Biconnected block per edge (Tarjan: a tree edge `u`→`v` with
    /// `low[v] >= tin[u]` closes the block of the edges stacked since it).
    fn blocks(&self) -> Vec<u32> {
        const UNSEEN: u32 = u32::MAX;
        let n = self.node_count();
        let mut block = vec![0; self.edges.len()];
        let (mut tin, mut low) = (vec![UNSEEN; n], vec![0; n]);
        let (mut timer, mut next) = (0, 0);
        let mut edge_stack = Vec::new();
        let mut stack: Vec<(u32, u32, usize)> = Vec::new();
        for r in 0..n as u32 {
            if tin[r as usize] != UNSEEN {
                continue;
            }
            (tin[r as usize], low[r as usize]) = (timer, timer);
            timer += 1;
            stack.push((r, u32::MAX, 0));
            while let Some(top) = stack.last_mut() {
                let (v, parent_edge, i) = *top;
                if let Some(&(w, e)) = self.adj[v as usize].get(i) {
                    top.2 += 1;
                    if e == parent_edge {
                        continue;
                    }
                    if tin[w as usize] == UNSEEN {
                        edge_stack.push(e);
                        (tin[w as usize], low[w as usize]) = (timer, timer);
                        timer += 1;
                        stack.push((w, e, 0));
                    } else if tin[w as usize] < tin[v as usize] {
                        // A back edge, stacked from its lower end only.
                        edge_stack.push(e);
                        low[v as usize] = low[v as usize].min(tin[w as usize]);
                    }
                    continue;
                }
                stack.pop();
                if let Some(&(u, _, _)) = stack.last() {
                    low[u as usize] = low[u as usize].min(low[v as usize]);
                    if low[v as usize] >= tin[u as usize] {
                        while let Some(e) = edge_stack.pop() {
                            block[e as usize] = next;
                            if e == parent_edge {
                                break;
                            }
                        }
                        next += 1;
                    }
                }
            }
        }
        block
    }

    /// Whether `λ(s, t) > k`: `k + 1` edge-disjoint `s`–`t` paths exist.
    /// Unit-capacity augmenting paths; `flow[e]` is the net flow along
    /// `edges[e]` from its first to its second end.
    fn connectivity_exceeds(&self, s: u32, t: u32, k: usize) -> bool {
        let mut flow = vec![0i8; self.edges.len()];
        let mut via: Vec<Option<(u32, u32)>> = vec![None; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        for _ in 0..=k {
            via.iter_mut().for_each(|v| *v = None);
            via[s as usize] = Some((s, u32::MAX));
            queue.clear();
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                if v == t {
                    break;
                }
                for &(w, e) in &self.adj[v as usize] {
                    let forward = self.edges[e as usize].0 == v;
                    let residual = if forward {
                        flow[e as usize] < 1
                    } else {
                        flow[e as usize] > -1
                    };
                    if residual && via[w as usize].is_none() {
                        via[w as usize] = Some((v, e));
                        queue.push_back(w);
                    }
                }
            }
            if via[t as usize].is_none() {
                return false;
            }
            let mut w = t;
            while w != s {
                let (v, e) = via[w as usize].expect("on the augmenting path");
                flow[e as usize] += if self.edges[e as usize].0 == v { 1 } else { -1 };
                w = v;
            }
        }
        true
    }
}

/// What [`small_cuts`] reports as it goes. Its caller answers each step
/// with `Err` to end the enumeration.
pub(crate) enum Step<'a> {
    /// About this many edge visits of graph work come next.
    Work(u64),
    /// A bond of at most `k` links. Removing `edges` (indices into the
    /// input graph's edges) splits one component into the classes `side`
    /// and the classes `rest`.
    Bond {
        edges: &'a [u32],
        side: &'a [u32],
        rest: &'a [u32],
    },
}

/// The classes of a graph at budget `k`.
pub(crate) struct Classes {
    /// Per node its class (`λ > k` equivalence).
    pub(crate) class: Vec<u32>,
    /// Per class its connected component.
    pub(crate) component: Vec<u32>,
}

/// The classes of `g` at budget `k` (`usize::MAX` for no budget), after
/// handing `visit` every bond of at most `k` links, each once. Nothing is
/// kept per bond, so the caller's answers to `visit` bound the whole run:
/// the first `Err` ends it and is returned.
pub(crate) fn small_cuts<E>(
    g: &Graph,
    k: usize,
    visit: &mut dyn FnMut(Step<'_>) -> Result<(), E>,
) -> Result<Classes, E> {
    let n = g.node_count();
    let mut dfs = Dfs::new(n);
    visit(Step::Work(g.pass_cost()))?;
    dfs.run(g, &vec![false; g.edges.len()]);
    let comp = &dfs.comp;
    let degree = |v: usize| g.adj[v].len();
    // Classes: a node of degree <= k is alone in its class; any other joins
    // the class of the first representative it is (k + 1)-connected to.
    let mut class = vec![0; n];
    let mut reps: Vec<u32> = Vec::new();
    for u in 0..n {
        let mut joined = None;
        if degree(u) > k {
            for (i, &r) in reps.iter().enumerate() {
                if comp[r as usize] != comp[u] || degree(r as usize) <= k {
                    continue;
                }
                // At most k + 1 augmenting paths, one pass each.
                visit(Step::Work((k as u64 + 1) * g.pass_cost()))?;
                if g.connectivity_exceeds(u as u32, r, k) {
                    joined = Some(i);
                    break;
                }
            }
        }
        class[u] = joined.unwrap_or_else(|| {
            reps.push(u as u32);
            reps.len() - 1
        }) as u32;
    }
    let component: Vec<u32> = reps.iter().map(|&r| comp[r as usize]).collect();
    // The quotient graph over classes keeps the links between classes.
    let (mut q_edges, mut origin) = (Vec::new(), Vec::new());
    for (e, &(a, b)) in g.edges.iter().enumerate() {
        let (ca, cb) = (class[a as usize], class[b as usize]);
        if ca != cb {
            q_edges.push((ca, cb));
            origin.push(e as u32);
        }
    }
    let q = Graph::new(reps.len(), q_edges);
    let max_size = k.min(q.edges.len());
    if max_size > 0 {
        visit(Step::Work(q.pass_cost()))?;
        let mut walk = BondWalk {
            q: &q,
            origin: &origin,
            max_size,
            removed: vec![false; q.edges.len()],
            chosen: Vec::new(),
            components: component.iter().max().map_or(0, |c| *c as usize + 1),
            edge_block: q.blocks(),
            dfs: Dfs::new(q.node_count()),
            edges: Vec::new(),
            side: Vec::new(),
            rest: Vec::new(),
        };
        walk.extend(0, visit)?;
    }
    Ok(Classes { class, component })
}

/// The bond enumeration's state: `chosen` is the current `R`, `removed`
/// its mask; `edges`, `side` and `rest` hold the bond being reported.
struct BondWalk<'g> {
    q: &'g Graph,
    /// Per quotient edge its edge in the input graph.
    origin: &'g [u32],
    max_size: usize,
    removed: Vec<bool>,
    chosen: Vec<u32>,
    components: usize,
    /// Biconnected block per edge.
    edge_block: Vec<u32>,
    dfs: Dfs,
    edges: Vec<u32>,
    side: Vec<u32>,
    rest: Vec<u32>,
}

impl BondWalk<'_> {
    /// Reports the bonds `chosen ∪ {b}`, then extends `chosen` by each edge
    /// from `from` on.
    fn extend<E>(
        &mut self,
        from: usize,
        visit: &mut dyn FnMut(Step<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        visit(Step::Work(self.q.pass_cost()))?;
        if self.dfs.run(self.q, &self.removed) != self.components {
            // `chosen` disconnects the graph: it contains a cut, so no
            // superset is minimal.
            return Ok(());
        }
        let above = self.chosen.last().map_or(0, |&m| m + 1);
        for &(b, child) in &self.dfs.bridges {
            let dfs = &self.dfs;
            let crosses = |e: u32| {
                let (x, y) = self.q.edges[e as usize];
                dfs.below(x, child) != dfs.below(y, child)
            };
            if b < above || !self.chosen.iter().all(|&e| crosses(e)) {
                continue;
            }
            self.edges.clear();
            self.edges.extend(
                self.chosen
                    .iter()
                    .chain([&b])
                    .map(|&e| self.origin[e as usize]),
            );
            self.side.clear();
            self.rest.clear();
            for x in 0..self.q.node_count() as u32 {
                if dfs.below(x, child) {
                    self.side.push(x);
                } else if dfs.comp[x as usize] == dfs.comp[child as usize] {
                    self.rest.push(x);
                }
            }
            visit(Step::Bond {
                edges: &self.edges,
                side: &self.side,
                rest: &self.rest,
            })?;
        }
        if self.chosen.len() + 1 < self.max_size {
            let first = self.chosen.first().map(|&e| self.edge_block[e as usize]);
            for e in from..self.q.edges.len() {
                // A bond's links all lie in one block.
                if first.is_some_and(|c| c != self.edge_block[e]) {
                    continue;
                }
                self.removed[e] = true;
                self.chosen.push(e as u32);
                let done = self.extend(e + 1, visit);
                self.chosen.pop();
                self.removed[e] = false;
                done?;
            }
        }
        Ok(())
    }
}

/// One iterative depth-first pass that finds components and bridges
/// (Tarjan's low-link), with entry/exit times so "is `x` in the subtree
/// below `v`" is two comparisons.
struct Dfs {
    tin: Vec<u32>,
    tout: Vec<u32>,
    low: Vec<u32>,
    /// Per node its connected component, numbered in node order.
    comp: Vec<u32>,
    /// `(edge, child)`: removing `edge` cuts off the subtree below `child`.
    bridges: Vec<(u32, u32)>,
    stack: Vec<(u32, u32, usize)>,
}

impl Dfs {
    fn new(n: usize) -> Dfs {
        Dfs {
            tin: vec![0; n],
            tout: vec![0; n],
            low: vec![0; n],
            comp: vec![0; n],
            bridges: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs over `g` without the `removed` edges; returns the number of
    /// connected components.
    fn run(&mut self, g: &Graph, removed: &[bool]) -> usize {
        const UNSEEN: u32 = u32::MAX;
        self.tin.iter_mut().for_each(|t| *t = UNSEEN);
        self.bridges.clear();
        let mut timer = 0;
        let mut components = 0;
        for r in 0..g.node_count() as u32 {
            if self.tin[r as usize] != UNSEEN {
                continue;
            }
            self.tin[r as usize] = timer;
            self.low[r as usize] = timer;
            self.comp[r as usize] = components;
            timer += 1;
            self.stack.push((r, u32::MAX, 0));
            while let Some(top) = self.stack.last_mut() {
                let (v, parent_edge, i) = *top;
                if let Some(&(w, e)) = g.adj[v as usize].get(i) {
                    top.2 += 1;
                    if removed[e as usize] || e == parent_edge {
                        continue;
                    }
                    if self.tin[w as usize] == UNSEEN {
                        self.tin[w as usize] = timer;
                        self.low[w as usize] = timer;
                        self.comp[w as usize] = components;
                        timer += 1;
                        self.stack.push((w, e, 0));
                    } else {
                        self.low[v as usize] = self.low[v as usize].min(self.tin[w as usize]);
                    }
                    continue;
                }
                self.stack.pop();
                self.tout[v as usize] = timer - 1;
                if let Some(&(u, _, _)) = self.stack.last() {
                    self.low[u as usize] = self.low[u as usize].min(self.low[v as usize]);
                    if self.low[v as usize] > self.tin[u as usize] {
                        self.bridges.push((parent_edge, v));
                    }
                }
            }
            components += 1;
        }
        components as usize
    }

    /// Whether `x` lies in the subtree below `v`.
    fn below(&self, x: u32, v: u32) -> bool {
        (self.tin[v as usize]..=self.tout[v as usize]).contains(&self.tin[x as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classes at budget `k` and the bonds, each as its sorted links
    /// and the size of its `side`, in order of discovery.
    fn cuts(n: usize, edges: &[(u32, u32)], k: usize) -> (Classes, Vec<(Vec<u32>, usize)>) {
        let g = Graph::new(n, edges.to_vec());
        let mut bonds = Vec::new();
        let mut splits = Vec::new();
        let classes = small_cuts::<()>(&g, k, &mut |step| {
            if let Step::Bond { edges, side, rest } = step {
                let mut e = edges.to_vec();
                e.sort();
                bonds.push((e, side.len()));
                splits.push([side.to_vec(), rest.to_vec()].concat());
            }
            Ok(())
        })
        .expect("never stopped");
        // A bond's two sides are its component's classes, each once.
        for mut split in splits {
            let comp = classes.component[split[0] as usize];
            split.sort();
            let whole: Vec<u32> = (0..classes.component.len() as u32)
                .filter(|&c| classes.component[c as usize] == comp)
                .collect();
            assert_eq!(split, whole);
        }
        (classes, bonds)
    }

    /// Bonds as sorted edge lists, sorted.
    fn bond_sets(bonds: &[(Vec<u32>, usize)]) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = bonds.iter().map(|b| b.0.clone()).collect();
        out.sort();
        out
    }

    /// Connected component per node.
    fn components(g: &Graph) -> Vec<u32> {
        let mut dfs = Dfs::new(g.node_count());
        dfs.run(g, &vec![false; g.edges.len()]);
        dfs.comp
    }

    /// Brute force: every edge set of size <= k whose removal adds exactly
    /// one component and whose every edge crosses the split.
    fn brute_bonds(n: usize, edges: &[(u32, u32)], k: usize) -> Vec<Vec<u32>> {
        let g = Graph::new(n, edges.to_vec());
        let base = components(&g).iter().max().map_or(0, |c| *c + 1);
        let mut out = Vec::new();
        for mask in 1u32..(1 << edges.len()) {
            if mask.count_ones() as usize > k {
                continue;
            }
            let kept: Vec<(u32, u32)> = (0..edges.len())
                .filter(|e| mask & (1 << e) == 0)
                .map(|e| edges[e])
                .collect();
            let comp = components(&Graph::new(n, kept));
            let split = comp.iter().max().map_or(0, |c| *c + 1);
            let crosses = (0..edges.len())
                .filter(|e| mask & (1 << e) != 0)
                .all(|e| comp[edges[e].0 as usize] != comp[edges[e].1 as usize]);
            if split == base + 1 && crosses {
                out.push(
                    (0..edges.len() as u32)
                        .filter(|e| mask & (1 << e) != 0)
                        .collect(),
                );
            }
        }
        out.sort();
        out
    }

    #[test]
    fn a_well_meshed_core_is_one_class() {
        // K5 (λ = 4) plus a dual-homed leaf 5.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for a in 0..5 {
            for b in a + 1..5 {
                edges.push((a, b));
            }
        }
        edges.extend([(5, 0), (5, 1)]);
        let (classes, bonds) = cuts(6, &edges, 3);
        assert_eq!(classes.class, [0, 0, 0, 0, 0, 1]);
        // The only bond of <= 3 links is the leaf's star.
        assert_eq!(bonds, vec![(vec![10, 11], 1)]);
    }

    #[test]
    fn bonds_match_brute_force_on_small_graphs() {
        let graphs: [(usize, &[(u32, u32)]); 2] = [
            // A ring with chords, parallel links and a pendant path, plus a
            // separate component.
            (
                8,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 0),
                    (0, 2),
                    (1, 3),
                    (3, 4),
                    (3, 4),
                    (4, 5),
                    (6, 7),
                ],
            ),
            // Two rings sharing node 2 (blocks meeting at a cut vertex), a
            // bridge to a K4, and a router dual-homed into the K4.
            (
                10,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 0),
                    (2, 3),
                    (3, 4),
                    (4, 2),
                    (4, 5),
                    (5, 6),
                    (5, 7),
                    (5, 8),
                    (6, 7),
                    (6, 8),
                    (7, 8),
                    (9, 6),
                    (9, 7),
                ],
            ),
        ];
        for (n, edges) in graphs {
            for k in 0..=edges.len() {
                let (_, bonds) = cuts(n, edges, k);
                let want = if k == 0 {
                    Vec::new()
                } else {
                    // Bonds of the graph itself; classes only contract links
                    // no bond of <= k uses.
                    brute_bonds(n, edges, k)
                };
                assert_eq!(bond_sets(&bonds), want, "{edges:?} k={k}");
            }
        }
    }

    #[test]
    fn an_error_ends_the_enumeration() {
        let g = Graph::new(3, vec![(0, 1), (1, 2), (2, 0)]);
        let mut steps = 0;
        let out = small_cuts(&g, 2, &mut |_| {
            steps += 1;
            if steps == 2 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert!(matches!(out, Err("stop")));
        assert_eq!(steps, 2, "nothing runs after the error");
    }
}
