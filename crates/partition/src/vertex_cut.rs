//! Vertex-cut (edge-disjoint) partitioning, as in GraphLab/PowerGraph.
//!
//! Edges are assigned to machines; a vertex is *replicated* on every machine
//! that holds one of its edges. One replica is the master, the rest are
//! mirrors that synchronize with it every superstep — so the **replication
//! factor** (average replicas per vertex, the paper's Table 4) directly
//! drives both memory footprint and network traffic.
//!
//! Strategies (§4.4.1):
//!
//! * **Random** — hash each edge.
//! * **Grid** — machines form an `X × Y` rectangle with `|X - Y| <= 2`; a
//!   vertex's candidate set is the row plus column of its hash machine,
//!   bounding replicas at `X + Y - 1`.
//! * **PDS** — requires `M = p^2 + p + 1`; candidate sets are translates of
//!   a perfect difference set, so any two sets intersect in exactly one
//!   machine, bounding replicas at `p + 1`.
//! * **Oblivious** — greedy placement using the replica sets built so far.
//! * **Auto** — PDS if the machine count qualifies, else Grid, else
//!   Oblivious (GraphLab's preference order).
//!
//! # Data path
//!
//! Every `S` and `GL` cell builds one of these before its first superstep, so
//! neither layer searches per edge. **Placement:** Grid/Grid2D never
//! materialize candidate sets — the intersection of "row plus column" of two
//! hash machines is known in closed form ([`assign_grid`]); Oblivious keeps
//! its growing replica sets as bitset words and intersects with an AND
//! ([`assign_oblivious`]); only PDS, whose sets have `p + 1` members,
//! intersects sorted lists. **Replica sets:** one flat `offsets + ids` pair
//! for all vertices, built by a counting sort of incident machine ids by
//! vertex and a per-vertex bitset dedup that emits ascending ids in place
//! ([`replica_sets`]).

use crate::pds::perfect_difference_set;
use crate::{bit_members, hash_to_machine, MachineBits, MachineId};
use graphbench_graph::rng::splitmix64;
use graphbench_graph::{EdgeList, VertexId};

/// Partitioning strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexCutStrategy {
    Random,
    Grid,
    /// GraphX's EdgePartition2D: the same row-column sharding as Grid but
    /// without GraphLab's `|X - Y| <= 2` restriction — any factorization
    /// works, bounding replication at roughly `2 * sqrt(partitions)`.
    Grid2D,
    Pds,
    Oblivious,
    /// PDS if available, else Grid, else Oblivious.
    Auto,
}

impl VertexCutStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            VertexCutStrategy::Random => "random",
            VertexCutStrategy::Grid => "grid",
            VertexCutStrategy::Grid2D => "grid2d",
            VertexCutStrategy::Pds => "pds",
            VertexCutStrategy::Oblivious => "oblivious",
            VertexCutStrategy::Auto => "auto",
        }
    }
}

/// Why a requested strategy cannot run on this machine count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VertexCutError {
    /// Grid needs `X * Y = machines` with `|X - Y| <= 2`.
    GridUnavailable { machines: usize },
    /// PDS needs `machines = p^2 + p + 1`.
    PdsUnavailable { machines: usize },
}

impl std::fmt::Display for VertexCutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VertexCutError::GridUnavailable { machines } => {
                write!(f, "grid partitioning unavailable for {machines} machines")
            }
            VertexCutError::PdsUnavailable { machines } => {
                write!(f, "PDS partitioning unavailable for {machines} machines")
            }
        }
    }
}

impl std::error::Error for VertexCutError {}

/// The result of vertex-cut partitioning.
///
/// ```
/// use graphbench_graph::builder::edge_list_from_pairs;
/// use graphbench_partition::{VertexCutPartition, VertexCutStrategy};
///
/// let el = edge_list_from_pairs(&[(0, 1), (1, 2), (2, 0)]);
/// let p = VertexCutPartition::build(&el, 4, VertexCutStrategy::Random, 7).unwrap();
/// // Every edge lives on a machine both endpoints are replicated to.
/// let m = p.machine_of_edge(0);
/// assert!(p.replicas_of(0).contains(&m) && p.replicas_of(1).contains(&m));
/// assert!(p.replication_factor() >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct VertexCutPartition {
    machines: usize,
    resolved: VertexCutStrategy,
    /// Machine of each edge, parallel to the input edge list.
    edge_assignment: Vec<MachineId>,
    /// `replica_ids[replica_off[v]..replica_off[v + 1]]` is the ascending
    /// machine set of vertex `v` (empty for isolated vertices).
    replica_off: Vec<u32>,
    replica_ids: Vec<MachineId>,
    /// Master machine per vertex: the hash machine if it holds a replica or
    /// the vertex has none, otherwise a hashed member of the replica set.
    masters: Vec<MachineId>,
}

impl VertexCutPartition {
    /// Partition `el` onto `machines` machines.
    pub fn build(
        el: &EdgeList,
        machines: usize,
        strategy: VertexCutStrategy,
        seed: u64,
    ) -> Result<Self, VertexCutError> {
        assert!(machines > 0 && machines <= MachineId::MAX as usize + 1);
        let resolved = resolve(strategy, machines)?;
        let edge_assignment = match resolved {
            VertexCutStrategy::Random => assign_random(el, machines, seed),
            VertexCutStrategy::Grid => {
                let (x, y) =
                    grid_shape(machines).ok_or(VertexCutError::GridUnavailable { machines })?;
                assign_grid(el, x, y, seed)
            }
            VertexCutStrategy::Grid2D => {
                let (x, y) = grid2d_shape(machines);
                assign_grid(el, x, y, seed)
            }
            VertexCutStrategy::Pds => {
                let set = perfect_difference_set(machines)
                    .ok_or(VertexCutError::PdsUnavailable { machines })?;
                assign_constrained(el, machines, seed, &pds_candidates(&set, machines))
            }
            VertexCutStrategy::Oblivious => assign_oblivious(el, machines, seed),
            VertexCutStrategy::Auto => unreachable!("resolved above"),
        };
        let (replica_off, replica_ids, masters) =
            replica_sets(el, &edge_assignment, machines, seed);
        Ok(VertexCutPartition {
            machines,
            resolved,
            edge_assignment,
            replica_off,
            replica_ids,
            masters,
        })
    }

    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The strategy actually used (Auto resolved).
    pub fn resolved_strategy(&self) -> VertexCutStrategy {
        self.resolved
    }

    pub fn machine_of_edge(&self, edge_index: usize) -> MachineId {
        self.edge_assignment[edge_index]
    }

    pub fn edge_assignment(&self) -> &[MachineId] {
        &self.edge_assignment
    }

    /// Sorted replica set of `v`.
    pub fn replicas_of(&self, v: VertexId) -> &[MachineId] {
        let v = v as usize;
        &self.replica_ids[self.replica_off[v] as usize..self.replica_off[v + 1] as usize]
    }

    pub fn master_of(&self, v: VertexId) -> MachineId {
        self.masters[v as usize]
    }

    /// Total replicas across all vertices.
    pub fn total_replicas(&self) -> u64 {
        self.replica_ids.len() as u64
    }

    /// Average replicas per vertex that has at least one edge — the paper's
    /// replication factor (Table 4).
    pub fn replication_factor(&self) -> f64 {
        let cnt = self.replica_off.windows(2).filter(|w| w[1] > w[0]).count();
        if cnt == 0 {
            0.0
        } else {
            self.total_replicas() as f64 / cnt as f64
        }
    }

    /// Edge count per machine (load balance).
    pub fn edges_per_machine(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.machines];
        for &m in &self.edge_assignment {
            counts[m as usize] += 1;
        }
        counts
    }
}

fn resolve(
    strategy: VertexCutStrategy,
    machines: usize,
) -> Result<VertexCutStrategy, VertexCutError> {
    Ok(match strategy {
        VertexCutStrategy::Auto => {
            if perfect_difference_set(machines).is_some() {
                VertexCutStrategy::Pds
            } else if grid_shape(machines).is_some() {
                VertexCutStrategy::Grid
            } else {
                VertexCutStrategy::Oblivious
            }
        }
        #[allow(clippy::if_same_then_else)]
        VertexCutStrategy::Grid if grid_shape(machines).is_none() => {
            return Err(VertexCutError::GridUnavailable { machines })
        }
        VertexCutStrategy::Pds if perfect_difference_set(machines).is_none() => {
            return Err(VertexCutError::PdsUnavailable { machines })
        }
        s => s,
    })
}

/// Any `X * Y = machines` factorization closest to square (Grid2D); falls
/// back to `1 x machines` for primes.
pub fn grid2d_shape(machines: usize) -> (usize, usize) {
    let root = (machines as f64).sqrt() as usize;
    for x in (1..=root).rev() {
        if machines.is_multiple_of(x) {
            return (x, machines / x);
        }
    }
    (1, machines)
}

/// `X * Y = machines` with `|X - Y| <= 2`, preferring the squarest shape.
pub fn grid_shape(machines: usize) -> Option<(usize, usize)> {
    let root = (machines as f64).sqrt() as usize;
    for x in (1..=root).rev() {
        if machines.is_multiple_of(x) {
            let y = machines / x;
            if y.abs_diff(x) <= 2 {
                return Some((x, y));
            }
            // Divisors only get further apart below the square root.
            return None;
        }
    }
    None
}

fn assign_random(el: &EdgeList, machines: usize, seed: u64) -> Vec<MachineId> {
    el.edges
        .iter()
        .map(|e| {
            let key = ((e.src as u64) << 32) | e.dst as u64;
            (splitmix64(key ^ seed) % machines as u64) as MachineId
        })
        .collect()
}

/// The least loaded of `members`, load ties to the lowest machine id.
fn least_loaded(loads: &[u64], members: impl Iterator<Item = MachineId>) -> MachineId {
    members.min_by_key(|&m| (loads[m as usize], m)).expect("candidate sets are non-empty")
}

/// Grid / Grid2D placement on an `x * y` rectangle (machine `r * y + c` sits
/// at row `r`, column `c`): an edge goes to the least loaded machine that is
/// in both endpoints' candidate sets, ties to the lowest machine id.
///
/// A candidate set is the row plus column of the vertex's hash machine, so
/// the intersection of two sets needs no search. With hash machines
/// `(ru, cu)` and `(rv, cv)`:
///
/// * rows and columns both differ — exactly `(ru, cv)` and `(rv, cu)`;
/// * only the row (column) coincides — that whole row (column);
/// * same machine — its whole row plus column.
///
/// The list-intersection search this replaces (kept as the test oracle)
/// walked a sorted candidate list and took a member only when strictly less
/// loaded than the best so far, which is [`least_loaded`]'s rule; every pick
/// feeds the loads the next one reads, so the rule is part of the output.
fn assign_grid(el: &EdgeList, x: usize, y: usize, seed: u64) -> Vec<MachineId> {
    let machines = x * y;
    // (row, column) of each vertex's hash machine: one hash per vertex, not
    // two per edge.
    let cell: Vec<(MachineId, MachineId)> = (0..el.num_vertices)
        .map(|v| {
            let h = hash_to_machine(v, seed, machines) as usize;
            ((h / y) as MachineId, (h % y) as MachineId)
        })
        .collect();
    let id = |r: usize, c: usize| (r * y + c) as MachineId;
    let row = |r: usize| (0..y).map(move |c| id(r, c));
    let col = |c: usize| (0..x).map(move |r| id(r, c));
    let mut loads = vec![0u64; machines];
    let mut out = Vec::with_capacity(el.edges.len());
    for e in &el.edges {
        let (ru, cu) = cell[e.src as usize];
        let (rv, cv) = cell[e.dst as usize];
        let (ru, cu, rv, cv) = (ru as usize, cu as usize, rv as usize, cv as usize);
        let pick = match (ru == rv, cu == cv) {
            (false, false) => least_loaded(&loads, [id(ru, cv), id(rv, cu)].into_iter()),
            (true, false) => least_loaded(&loads, row(ru)),
            (false, true) => least_loaded(&loads, col(cu)),
            (true, true) => least_loaded(&loads, row(ru).chain(col(cu))),
        };
        loads[pick as usize] += 1;
        out.push(pick);
    }
    out
}

/// Flat replica sets and masters of an edge placement: `(offsets, ids,
/// masters)` with `ids[offsets[v]..offsets[v + 1]]` the ascending machines
/// holding an edge of `v`.
///
/// A counting sort groups the machine id of every edge endpoint by vertex;
/// each group is then deduplicated through a [`MachineBits`], whose members
/// come out ascending, written back over the front of the same buffer
/// (the write cursor can never pass the group being read), which is finally
/// cut to the distinct ids so the `2 |E|`-entry sort buffer does not outlive
/// the build. The master is picked while the group is at hand: the hash
/// machine when it holds a replica, otherwise a *hashed* member of the set
/// (picking the first member would pile masters — and their gather/apply
/// traffic — onto low-numbered machines).
fn replica_sets(
    el: &EdgeList,
    edge_assignment: &[MachineId],
    machines: usize,
    seed: u64,
) -> (Vec<u32>, Vec<MachineId>, Vec<MachineId>) {
    let n = el.num_vertices as usize;
    assert!(2 * el.edges.len() <= u32::MAX as usize, "replica offsets are u32");
    // `off[v]` starts as the group's first slot and is the fill cursor, so
    // after the fill it is the group's end (the next group's start).
    let mut off = vec![0u32; n + 1];
    for e in &el.edges {
        off[e.src as usize] += 1;
        off[e.dst as usize] += 1;
    }
    let mut total = 0u32;
    for o in off.iter_mut() {
        total += std::mem::replace(o, total);
    }
    let mut ids: Vec<MachineId> = vec![0; total as usize];
    for (e, &m) in el.edges.iter().zip(edge_assignment) {
        for v in [e.src, e.dst] {
            let cursor = &mut off[v as usize];
            ids[*cursor as usize] = m;
            *cursor += 1;
        }
    }
    let mut group = MachineBits::new(machines);
    let mut masters = Vec::with_capacity(n);
    let (mut read, mut write) = (0usize, 0usize);
    for v in 0..n {
        let end = std::mem::replace(&mut off[v], write as u32) as usize;
        for &m in &ids[read..end] {
            group.insert(m as usize);
        }
        read = end;
        let start = write;
        group.drain(|m| {
            ids[write] = m;
            write += 1;
        });
        let set = &ids[start..write];
        let h = hash_to_machine(v as u64, seed, machines);
        masters.push(if set.is_empty() || set.binary_search(&h).is_ok() {
            h
        } else {
            set[(splitmix64(v as u64 ^ seed.rotate_left(17)) % set.len() as u64) as usize]
        });
    }
    off[n] = write as u32;
    ids.truncate(write);
    ids.shrink_to_fit();
    (off, ids, masters)
}

/// Candidate machine set per hash machine for Grid: the row plus column of
/// the machine in the X x Y rectangle. Only the list-intersection oracle of
/// [`assign_grid`] materializes these.
#[cfg(test)]
fn grid_candidates(x: usize, y: usize) -> Vec<Vec<MachineId>> {
    let machines = x * y;
    (0..machines)
        .map(|m| {
            let (r, c) = (m / y, m % y);
            let mut set: Vec<MachineId> = (0..y).map(|cc| (r * y + cc) as MachineId).collect();
            for rr in 0..x {
                let cand = (rr * y + c) as MachineId;
                if !set.contains(&cand) {
                    set.push(cand);
                }
            }
            set.sort_unstable();
            set
        })
        .collect()
}

/// Candidate machine set per hash machine for PDS: the difference-set
/// translate containing the machine.
fn pds_candidates(set: &[u16], machines: usize) -> Vec<Vec<MachineId>> {
    (0..machines)
        .map(|m| {
            let mut cands: Vec<MachineId> =
                set.iter().map(|&s| ((m + s as usize) % machines) as MachineId).collect();
            cands.sort_unstable();
            cands
        })
        .collect()
}

/// Constrained placement by sorted-list intersection, used by PDS (sets of
/// `p + 1` members) and as the oracle [`assign_grid`] is tested against: an
/// edge goes to the least loaded machine in the intersection of its
/// endpoints' candidate sets (falling back to the union if the intersection
/// is empty, which cannot happen for Grid/PDS but keeps the code total).
fn assign_constrained(
    el: &EdgeList,
    machines: usize,
    seed: u64,
    candidates: &[Vec<MachineId>],
) -> Vec<MachineId> {
    let mut loads = vec![0u64; machines];
    let mut out = Vec::with_capacity(el.edges.len());
    for e in &el.edges {
        let su = &candidates[hash_to_machine(e.src as u64, seed, machines) as usize];
        let sv = &candidates[hash_to_machine(e.dst as u64, seed, machines) as usize];
        let mut best: Option<MachineId> = None;
        for &m in su {
            if sv.binary_search(&m).is_ok() {
                let better = match best {
                    None => true,
                    Some(b) => loads[m as usize] < loads[b as usize],
                };
                if better {
                    best = Some(m);
                }
            }
        }
        let pick = best.unwrap_or_else(|| {
            *su.iter()
                .chain(sv.iter())
                .min_by_key(|&&m| loads[m as usize])
                .expect("candidate sets are non-empty")
        });
        loads[pick as usize] += 1;
        out.push(pick);
    }
    out
}

/// Greedy "Oblivious" placement (paper §4.4.1): use the replica sets built
/// so far, preferring machines that already host both endpoints, then either
/// endpoint, then the least loaded machine overall.
///
/// The growing replica sets are one flat table of `⌈machines / 64⌉` bitset
/// words per vertex, so "both endpoints" and "either endpoint" are an AND and
/// an OR per word. Every pick is [`least_loaded`], whose `(load, machine id)`
/// key is total: the result does not depend on the order members are offered
/// in, so it is the pick the insertion-ordered list scan this replaces (kept
/// as the test oracle) made, edge for edge.
fn assign_oblivious(el: &EdgeList, machines: usize, _seed: u64) -> Vec<MachineId> {
    let words = machines.div_ceil(64);
    let mut replica_bits = vec![0u64; el.num_vertices as usize * words];
    let mut loads = vec![0u64; machines];
    let mut out = Vec::with_capacity(el.edges.len());
    for e in &el.edges {
        let (u, v) = (e.src as usize * words, e.dst as usize * words);
        let (su, sv) = (&replica_bits[u..u + words], &replica_bits[v..v + words]);
        let least_loaded_of = |combine: fn(u64, u64) -> u64| {
            let mut set = bit_members(su.iter().zip(sv).map(|(&a, &b)| combine(a, b))).peekable();
            set.peek().is_some().then(|| least_loaded(&loads, set))
        };
        // With no common machine the union is what either side has; one side
        // may be empty, the other then decides alone.
        let pick = least_loaded_of(|a, b| a & b)
            .or_else(|| least_loaded_of(|a, b| a | b))
            .unwrap_or_else(|| least_loaded(&loads, 0..machines as MachineId));
        loads[pick as usize] += 1;
        let (word, bit) = (pick as usize / 64, 1u64 << (pick % 64));
        replica_bits[u + word] |= bit;
        replica_bits[v + word] |= bit;
        out.push(pick);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_graph::builder::edge_list_from_pairs;

    fn ring(n: u32) -> EdgeList {
        edge_list_from_pairs(&(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    /// A small power-law-ish star-heavy graph.
    fn skewed() -> EdgeList {
        let mut pairs = Vec::new();
        for i in 1..400u32 {
            pairs.push((0, i)); // hub
            pairs.push((i, (i * 13 + 1) % 400));
        }
        edge_list_from_pairs(&pairs)
    }

    /// Pseudo-random pairs (self-loops and duplicates included), dense
    /// enough that machine loads grow past the all-ties regime.
    fn random_edges(seed: u64) -> EdgeList {
        let pairs: Vec<(u32, u32)> = (0..6_000u64)
            .map(|i| {
                let h = splitmix64(i ^ seed.rotate_left(7));
                ((h % 500) as u32, ((h >> 32) % 500) as u32)
            })
            .collect();
        edge_list_from_pairs(&pairs)
    }

    #[test]
    fn closed_form_grid_matches_list_intersection() {
        let shapes = [(1, 13), (2, 3), (4, 4), (8, 8), (16, 32), (20, 22)];
        for seed in [1u64, 7, 42] {
            for el in [skewed(), random_edges(seed)] {
                for (x, y) in shapes {
                    let machines = x * y;
                    let oracle =
                        |x, y| assign_constrained(&el, machines, seed, &grid_candidates(x, y));
                    assert_eq!(assign_grid(&el, x, y, seed), oracle(x, y), "{x}x{y} seed {seed}");
                    for strat in [
                        VertexCutStrategy::Grid,
                        VertexCutStrategy::Grid2D,
                        VertexCutStrategy::Auto,
                    ] {
                        let Ok(p) = VertexCutPartition::build(&el, machines, strat, seed) else {
                            assert_eq!(strat, VertexCutStrategy::Grid);
                            assert_eq!(grid_shape(machines), None);
                            continue;
                        };
                        let (sx, sy) = match p.resolved_strategy() {
                            VertexCutStrategy::Grid => grid_shape(machines).unwrap(),
                            VertexCutStrategy::Grid2D => grid2d_shape(machines),
                            // Auto fell through to PDS or Oblivious: no grid.
                            _ => continue,
                        };
                        assert_eq!(
                            p.edge_assignment(),
                            oracle(sx, sy),
                            "{strat:?} at {machines} machines, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    /// Oblivious placement as it was: one insertion-ordered heap list of
    /// machines per vertex, membership by linear scan.
    fn assign_oblivious_lists(el: &EdgeList, machines: usize) -> Vec<MachineId> {
        let mut replica_sets: Vec<Vec<MachineId>> = vec![Vec::new(); el.num_vertices as usize];
        let mut loads = vec![0u64; machines];
        let mut out = Vec::with_capacity(el.edges.len());
        for e in &el.edges {
            let (u, v) = (e.src as usize, e.dst as usize);
            let pick = {
                let su = &replica_sets[u];
                let sv = &replica_sets[v];
                let mut inter = su.iter().copied().filter(|m| sv.contains(m)).peekable();
                if inter.peek().is_some() {
                    least_loaded(&loads, inter)
                } else if su.is_empty() && sv.is_empty() {
                    least_loaded(&loads, 0..machines as MachineId)
                } else {
                    least_loaded(&loads, su.iter().chain(sv).copied())
                }
            };
            loads[pick as usize] += 1;
            for w in [u, v] {
                if !replica_sets[w].contains(&pick) {
                    replica_sets[w].push(pick);
                }
            }
            out.push(pick);
        }
        out
    }

    #[test]
    fn bitset_oblivious_matches_the_list_scan() {
        // 63, 64 and 65 sit on both sides of the first word boundary, 128 and
        // 100 fill and half-fill a second word.
        for machines in [1usize, 2, 16, 63, 64, 65, 100, 128] {
            for seed in [1u64, 7, 42] {
                let mut sparse = random_edges(seed);
                sparse.edges.truncate(300);
                sparse.num_vertices += 5; // isolated tail
                for el in [skewed(), random_edges(seed), sparse] {
                    assert_eq!(
                        assign_oblivious(&el, machines, seed),
                        assign_oblivious_lists(&el, machines),
                        "{machines} machines, seed {seed}, {} edges",
                        el.edges.len()
                    );
                }
            }
            let built = VertexCutPartition::build(
                &random_edges(3),
                machines,
                VertexCutStrategy::Oblivious,
                3,
            )
            .unwrap();
            assert_eq!(built.edge_assignment(), assign_oblivious_lists(&random_edges(3), machines));
        }
    }

    #[test]
    fn flat_replicas_match_naive_sets() {
        // 65 and 130 machines cross a 64-bit word of the dedup bitset.
        for machines in [1usize, 16, 65, 130] {
            for strat in
                [VertexCutStrategy::Random, VertexCutStrategy::Oblivious, VertexCutStrategy::Grid2D]
            {
                for (el, seed) in [(skewed(), 3u64), (random_edges(5), 5)] {
                    let p = VertexCutPartition::build(&el, machines, strat, seed).unwrap();
                    let mut naive: Vec<Vec<MachineId>> = vec![Vec::new(); el.num_vertices as usize];
                    for (e, &m) in el.edges.iter().zip(p.edge_assignment()) {
                        naive[e.src as usize].push(m);
                        naive[e.dst as usize].push(m);
                    }
                    let mut total = 0u64;
                    for (v, r) in naive.iter_mut().enumerate() {
                        r.sort_unstable();
                        r.dedup();
                        total += r.len() as u64;
                        let ctx = format!("{strat:?} at {machines} machines, v={v}");
                        assert_eq!(p.replicas_of(v as VertexId), r.as_slice(), "{ctx}");
                        let h = hash_to_machine(v as u64, seed, machines);
                        let master = if r.is_empty() || r.contains(&h) {
                            h
                        } else {
                            r[(splitmix64(v as u64 ^ seed.rotate_left(17)) % r.len() as u64)
                                as usize]
                        };
                        assert_eq!(p.master_of(v as VertexId), master, "{ctx}");
                    }
                    assert_eq!(p.total_replicas(), total);
                }
            }
        }
    }

    #[test]
    fn grid_shape_matches_the_paper() {
        assert_eq!(grid_shape(16), Some((4, 4)));
        assert_eq!(grid_shape(64), Some((8, 8)));
        assert_eq!(grid_shape(12), Some((3, 4)));
        assert_eq!(grid_shape(32), None);
        assert_eq!(grid_shape(128), None);
    }

    #[test]
    fn auto_resolution_matches_the_paper() {
        // 16 and 64 machines -> Grid; 32 and 128 -> Oblivious (§5.4).
        for (m, want) in [
            (16, VertexCutStrategy::Grid),
            (32, VertexCutStrategy::Oblivious),
            (64, VertexCutStrategy::Grid),
            (128, VertexCutStrategy::Oblivious),
            (7, VertexCutStrategy::Pds),
        ] {
            let p = VertexCutPartition::build(&ring(100), m, VertexCutStrategy::Auto, 1).unwrap();
            assert_eq!(p.resolved_strategy(), want, "machines = {m}");
        }
    }

    #[test]
    fn every_edge_assigned_and_replicas_cover_endpoints() {
        let el = skewed();
        for strat in
            [VertexCutStrategy::Random, VertexCutStrategy::Grid, VertexCutStrategy::Oblivious]
        {
            let p = VertexCutPartition::build(&el, 16, strat, 1).unwrap();
            assert_eq!(p.edge_assignment().len(), el.edges.len());
            for (i, e) in el.edges.iter().enumerate() {
                let m = p.machine_of_edge(i);
                assert!(p.replicas_of(e.src).contains(&m), "{strat:?}");
                assert!(p.replicas_of(e.dst).contains(&m), "{strat:?}");
            }
            // Master is always a replica for connected vertices.
            for v in 0..el.num_vertices as VertexId {
                if !p.replicas_of(v).is_empty() {
                    assert!(p.replicas_of(v).contains(&p.master_of(v)));
                }
            }
        }
    }

    #[test]
    fn grid_bounds_replication() {
        let el = skewed();
        let p = VertexCutPartition::build(&el, 16, VertexCutStrategy::Grid, 1).unwrap();
        // Grid 4x4: at most X + Y - 1 = 7 replicas.
        for v in 0..el.num_vertices as VertexId {
            assert!(p.replicas_of(v).len() <= 7);
        }
    }

    #[test]
    fn pds_bounds_replication() {
        let el = skewed();
        let p = VertexCutPartition::build(&el, 13, VertexCutStrategy::Pds, 1).unwrap();
        // PDS with p=3: at most p + 1 = 4 replicas.
        for v in 0..el.num_vertices as VertexId {
            assert!(p.replicas_of(v).len() <= 4, "v={v}: {:?}", p.replicas_of(v));
        }
    }

    #[test]
    fn smarter_strategies_beat_random_on_skewed_graphs() {
        let el = skewed();
        let rf = |s| VertexCutPartition::build(&el, 16, s, 1).unwrap().replication_factor();
        let random = rf(VertexCutStrategy::Random);
        let grid = rf(VertexCutStrategy::Grid);
        let obl = rf(VertexCutStrategy::Oblivious);
        assert!(grid < random, "grid {grid} vs random {random}");
        assert!(obl < random, "oblivious {obl} vs random {random}");
    }

    #[test]
    fn unavailable_strategies_error() {
        let el = ring(10);
        assert_eq!(
            VertexCutPartition::build(&el, 32, VertexCutStrategy::Grid, 1).unwrap_err(),
            VertexCutError::GridUnavailable { machines: 32 }
        );
        assert_eq!(
            VertexCutPartition::build(&el, 32, VertexCutStrategy::Pds, 1).unwrap_err(),
            VertexCutError::PdsUnavailable { machines: 32 }
        );
    }

    #[test]
    fn single_machine_replication_factor_is_one() {
        let p = VertexCutPartition::build(&ring(50), 1, VertexCutStrategy::Random, 1).unwrap();
        assert!((p.replication_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let el = skewed();
        let a = VertexCutPartition::build(&el, 16, VertexCutStrategy::Random, 1).unwrap();
        let b = VertexCutPartition::build(&el, 16, VertexCutStrategy::Random, 1).unwrap();
        assert_eq!(a.edge_assignment(), b.edge_assignment());
        let c = VertexCutPartition::build(&el, 16, VertexCutStrategy::Random, 2).unwrap();
        assert_ne!(a.edge_assignment(), c.edge_assignment());
    }

    #[test]
    fn isolated_vertices_have_no_replicas() {
        let mut el = ring(4);
        el.num_vertices = 10;
        let p = VertexCutPartition::build(&el, 4, VertexCutStrategy::Random, 1).unwrap();
        assert!(p.replicas_of(9).is_empty());
        // Replication factor ignores isolated vertices.
        assert!(p.replication_factor() >= 1.0);
    }
}
