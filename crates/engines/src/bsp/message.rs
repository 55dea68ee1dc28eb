//! The message path: the BSP test oracle.
//!
//! Any [`VertexProgram`] runs here exactly as Pregel would run it: a
//! vertex's `compute` sees the messages sent to it in the last superstep,
//! sends along its out-edges or to any vertex, and halts by returning
//! `false` until a message wakes it; a combiner folds each source machine's
//! messages per target, then the sources', when the program allows it for
//! that superstep (WCC's discovery superstep must not, §5.8). Every vertex
//! run, message and buffer is counted, and [`super::drive`] charges the
//! counts, as it does the product's two paths.
//!
//! No engine runs this path: every BSP workload takes the rank or the label
//! path (see the parent module). It stays as the oracle those paths are
//! held to, bit for bit, by `bsp::tests`: PageRank, WCC, SSSP and K-hop are
//! written here as plain vertex programs, each a few lines, and the
//! differentials compare states, supersteps, raw messages, runtime, metrics
//! and journal.
//!
//! Execution is deterministic *and* parallel: each simulated machine is a
//! [`Shard`], and every shard's vertex range is split into fixed-size
//! sub-chunks that host threads claim dynamically (see [`crate::exec`]).
//! Every sub-chunk produces an independent result (ops, outboxes,
//! allocations, message counts) and the coordinator merges them in
//! (machine, chunk) order, so neither the host thread count nor the chunk
//! size can change any count.
//!
//! Messages go through the zero-sort radix shuffle of [`crate::shuffle`].
//! Every out-edge's target is resolved to its `(machine, fragment-local id)`
//! once per run, in CSR order, into the shard's route table;
//! [`Ctx::send_to_out_neighbors`] walks the running vertex's routes and
//! files `(local id, payload)` in the sending chunk's bucket for each
//! target's machine. [`Ctx::send`], for other targets, does the same with
//! one [`LocalIndex`] read per message. Delivery reads every source's chunk
//! buckets where they lie, folding or grouping them by the carried local
//! id. A superstep is two dispatches: compute, then deliver.
//!
//! A chunk whose `active` count is zero (every SSSP and K-hop superstep
//! after the first) can only run vertices that have messages, so it walks
//! the set bits of the inbox's has-messages bitmap instead of testing each
//! vertex. Either way vertices run in ascending local id, so the choice is
//! unobservable.

use super::{drive, BspConfig, BspOutcome, Charges, Path, Step};
use crate::exec;
use crate::programs::PageRankProgram;
use crate::shuffle::Inbox;
use graphbench_algos::UNREACHABLE;
use graphbench_graph::{CsrGraph, VertexId};
use graphbench_partition::{EdgeCutPartition, LocalIndex, MachineId};
use graphbench_sim::{Cluster, SimError};

/// A message target resolved once per run: owner machine and fragment-local id.
type Route = (MachineId, u32);

/// Per-superstep context handed to [`VertexProgram::compute`]. One context
/// serves every vertex of a sub-chunk; its tallies accumulate across them.
pub struct Ctx<'a, M> {
    /// Current superstep (0-based).
    pub superstep: u64,
    li: &'a LocalIndex,
    /// The running vertex's out-edges, resolved, in CSR order.
    routes: &'a [Route],
    /// The executing chunk's outbox buckets, one per destination machine.
    out: &'a mut [Vec<(u32, M)>],
    sent: u64,
    extra_bytes: u64,
    agg_max: f64,
}

impl<M: Copy> Ctx<'_, M> {
    /// Send a message, delivered at the start of the next superstep. The
    /// target is resolved to `(machine, local id)` here, once; the local id
    /// travels with the message from then on. Out-edges take
    /// [`Ctx::send_to_out_neighbors`]; this is for every other target.
    pub fn send(&mut self, to: VertexId, msg: M) {
        let (machine, local) = self.li.machine_local_of(to);
        self.out[machine as usize].push((local, msg));
        self.sent += 1;
    }

    /// Send `msg` along every out-edge of the running vertex: exactly
    /// `for &t in g.out_neighbors(v) { ctx.send(t, msg) }`, the same buckets
    /// in the same order, with each target resolved once per run instead of
    /// once per send.
    pub fn send_to_out_neighbors(&mut self, msg: M) {
        for &(machine, local) in self.routes {
            self.out[machine as usize].push((local, msg));
        }
        self.sent += self.routes.len() as u64;
    }

    /// Permanently allocate `bytes` on the executing vertex's machine
    /// (e.g. WCC storing discovered in-neighbours).
    pub fn alloc(&mut self, bytes: u64) {
        self.extra_bytes += bytes;
    }

    /// Contribute to this superstep's global max-aggregator (Pregel
    /// aggregators, §2.1). Contributions are merged with `max` across
    /// vertices and machines — commutative, so the merged value is
    /// independent of execution order — and the result is handed to
    /// [`VertexProgram::finished`]. The aggregate resets to `0.0` each
    /// superstep; contributions are expected to be non-negative
    /// (PageRank's `|Δrank|` convergence check).
    pub fn aggregate_max(&mut self, x: f64) {
        if x > self.agg_max {
            self.agg_max = x;
        }
    }
}

/// A Pregel-style vertex program.
///
/// Programs are `Sync` and `compute` takes `&self`: vertices on different
/// machines execute concurrently on host threads. Mutable per-superstep
/// state goes through [`Ctx`] (sends, allocations, the max-aggregator);
/// mutable per-vertex state lives in `Value`.
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type Value: Clone + Send + Sync;
    /// Message payload.
    type Msg: Copy + Send + Sync;

    /// Initialize a vertex; returns its state and whether it starts active.
    fn init(&mut self, v: VertexId, g: &CsrGraph) -> (Self::Value, bool);

    /// One vertex execution. Return `true` to stay active. `msgs` is the
    /// vertex's slice of the machine's inbox (grouped per vertex by the
    /// shuffle), borrowed: the payloads sent to `v`, in arrival order.
    fn compute(
        &self,
        ctx: &mut Ctx<'_, Self::Msg>,
        g: &CsrGraph,
        v: VertexId,
        value: &mut Self::Value,
        msgs: &[Self::Msg],
    ) -> bool;

    /// Merge two messages bound for the same vertex.
    fn combine(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;

    /// The message every fold starts from: `combine(identity(), m) == m`,
    /// bit for bit, for every message `m`.
    fn identity(&self) -> Self::Msg;

    /// Whether messages sent in `superstep` may be combined.
    fn combinable(&self, _superstep: u64) -> bool {
        true
    }

    /// Called after each superstep with the superstep index and the merged
    /// [`Ctx::aggregate_max`] value; returning `true` stops the computation
    /// (program-level aggregator decision, e.g. PageRank's max-delta
    /// tolerance or a fixed iteration count).
    fn finished(&mut self, _superstep: u64, _max_aggregate: f64) -> bool {
        false
    }

    /// Bytes of one message value on the wire (a 4-byte target id is added
    /// by the runtime).
    fn wire_bytes(&self) -> u64;
}

/// One simulated machine's slice of the computation. Allocated once before
/// the superstep loop and reused: chunk buckets are cleared, not rebuilt,
/// each superstep.
pub(super) struct Shard<V, M> {
    /// Fragment vertex list, ascending by global id; position = local id.
    verts: Vec<VertexId>,
    /// Parallel to `verts`.
    states: Vec<V>,
    /// Parallel to `verts`.
    active: Vec<bool>,
    /// Local `l`'s out-edges are `routes[route_off[l]..route_off[l + 1]]`,
    /// in CSR order. Built once per run: the graph is static.
    route_off: Vec<u32>,
    routes: Vec<Route>,
    /// Vertices per sub-chunk ([`exec::chunk_size`] when the run began).
    chunk: usize,
    /// One entry per `chunk`-sized span of `verts` (see
    /// [`compute_superstep`]).
    pub(super) chunks: Vec<ChunkScratch<M>>,
}

impl<V, M> Shard<V, M> {
    /// Set every chunk's `active` count from the flags: at start-up, and
    /// whenever the flags are replaced wholesale (checkpoint restore).
    fn recount_active(&mut self) {
        for (scratch, flags) in self.chunks.iter_mut().zip(self.active.chunks(self.chunk)) {
            scratch.active = flags.iter().filter(|&&a| a).count();
        }
    }

    /// Vertices whose `active` flag is set.
    fn active_vertices(&self) -> usize {
        self.chunks.iter().map(|c| c.active).sum()
    }
}

/// What one sub-chunk keeps between supersteps: the per-destination buckets
/// its sends are filed in (pooled, so steady-state supersteps allocate
/// nothing) and how many of its vertices have their `active` flag set.
pub(super) struct ChunkScratch<M> {
    pub(super) out: Vec<Vec<(u32, M)>>,
    active: usize,
}

/// One sub-chunk of a shard's vertex range: disjoint `&mut` views of the
/// shard's state arrays and of the chunk's scratch, for the duration of the
/// compute stage.
struct ChunkTask<'a, V, M> {
    machine: usize,
    /// Fragment-local id of `verts[0]`.
    base: u32,
    verts: &'a [VertexId],
    /// `verts.len() + 1` offsets into `routes`, the shard's route table.
    route_off: &'a [u32],
    routes: &'a [Route],
    states: &'a mut [V],
    active: &'a mut [bool],
    scratch: &'a mut ChunkScratch<M>,
}

/// What a sub-chunk — and, summed, a shard — reports from a superstep.
/// Counters stay integral until `run_bsp` charges them, so chunk boundaries
/// cannot perturb any f64 a golden record sees.
#[derive(Clone, Copy, Default)]
pub(super) struct StepReport {
    ops: u64,
    pub(super) raw_messages: u64,
    extra_alloc: u64,
    any_ran: bool,
    agg_max: f64,
}

/// The message path's recovery snapshot: per-shard vertex state plus the
/// delivered inboxes at a superstep boundary.
pub(super) struct BspCheckpoint<V, M> {
    states: Vec<Vec<V>>,
    active: Vec<Vec<bool>>,
    inboxes: Vec<Inbox<M>>,
}

impl<V: Clone, M: Copy> BspCheckpoint<V, M> {
    fn capture(shards: &[Shard<V, M>], inboxes: &[Inbox<M>]) -> Self {
        BspCheckpoint {
            states: shards.iter().map(|s| s.states.clone()).collect(),
            active: shards.iter().map(|s| s.active.clone()).collect(),
            inboxes: inboxes.to_vec(),
        }
    }

    fn restore(&self, shards: &mut [Shard<V, M>], inboxes: &mut [Inbox<M>]) {
        for (shard, (states, active)) in shards.iter_mut().zip(self.states.iter().zip(&self.active))
        {
            shard.states.clone_from(states);
            shard.active.clone_from(active);
            shard.recount_active();
        }
        for (dst, src) in inboxes.iter_mut().zip(&self.inboxes) {
            dst.clone_from(src);
        }
    }
}

/// One superstep's compute, one dispatch. Shared by the live loop and
/// recovery replay (which discards the reports).
///
/// Every shard's sub-chunks run as one flat, dynamically-claimed task list
/// ([`exec::run_chunks`]): a fragment that dominates the superstep — a
/// power-law hub's machine — does not serialize it on one host thread. Each
/// task owns disjoint `&mut` slices of its shard's state arrays and its
/// chunk's buckets, reads the shard's inbox (read-only), and reports
/// *integer* counters. A chunk with no self-active vertex runs only the
/// vertices the inbox bitmap names; otherwise it tests every vertex. Both
/// visit ascending local ids, so each bucket holds its sends in the order an
/// unsplit loop would send them. Report merges are u64 sums and `max` folds
/// in chunk order, so every simulated metric is bit-identical at any chunk
/// size and thread count.
pub(super) fn compute_superstep<P: VertexProgram>(
    shards: &mut [Shard<P::Value, P::Msg>],
    inboxes: &[Inbox<P::Msg>],
    li: &LocalIndex,
    g: &CsrGraph,
    p: &P,
    superstep: u64,
) -> Vec<StepReport> {
    // Carve every shard into sub-chunk tasks holding disjoint state slices.
    let mut tasks: Vec<ChunkTask<'_, P::Value, P::Msg>> =
        Vec::with_capacity(shards.iter().map(|s| s.chunks.len()).sum());
    for (machine, shard) in shards.iter_mut().enumerate() {
        let Shard { verts, states, active, route_off, routes, chunk, chunks } = shard;
        let slices =
            verts.chunks(*chunk).zip(states.chunks_mut(*chunk)).zip(active.chunks_mut(*chunk));
        for (ci, (((verts, states), active), scratch)) in slices.zip(chunks).enumerate() {
            let lo = ci * *chunk;
            let route_off = &route_off[lo..=lo + verts.len()];
            let base = lo as u32;
            tasks.push(ChunkTask {
                machine,
                base,
                verts,
                route_off,
                routes,
                states,
                active,
                scratch,
            });
        }
    }

    let steps: Vec<(usize, StepReport)> = exec::run_chunks(&mut tasks, |_, task| {
        let inbox = &inboxes[task.machine];
        let (route_off, routes) = (task.route_off, task.routes);
        let ChunkScratch { out, active: active_count } = &mut *task.scratch;
        for buf in out.iter_mut() {
            buf.clear();
        }
        let sparse = *active_count == 0;
        let mut ctx =
            Ctx { superstep, li, routes: &[], out, sent: 0, extra_bytes: 0, agg_max: 0.0 };
        let mut ran = 0u64;
        let mut received = 0u64;
        // Run the vertex at chunk position `k` if it is active or has
        // messages; `base + k` is its fragment-local id.
        let mut run = |k: usize| {
            let msgs = inbox.msgs_of(task.base + k as u32);
            let was_active = task.active[k];
            if !was_active && msgs.is_empty() {
                return;
            }
            ctx.routes = &routes[route_off[k] as usize..route_off[k + 1] as usize];
            let still_active = p.compute(&mut ctx, g, task.verts[k], &mut task.states[k], msgs);
            task.active[k] = still_active;
            *active_count = *active_count + still_active as usize - was_active as usize;
            ran += 1;
            received += msgs.len() as u64;
        };
        if sparse {
            // No vertex here is self-active: only message targets can run.
            let end = task.base + task.verts.len() as u32;
            inbox.targets(task.base, end).for_each(|l| run((l - task.base) as usize));
        } else {
            (0..task.verts.len()).for_each(run);
        }
        let report = StepReport {
            ops: ran + received + ctx.sent,
            raw_messages: ctx.sent,
            extra_alloc: ctx.extra_bytes,
            any_ran: ran > 0,
            agg_max: ctx.agg_max,
        };
        (task.machine, report)
    });

    // Merge chunk reports per machine, in chunk order. Integer sums are
    // associative, so where the chunk boundaries fell is unobservable; the
    // aggregator folds with the same `if >` max as [`Ctx::aggregate_max`].
    let mut merged = vec![StepReport::default(); shards.len()];
    for (machine, step) in steps {
        let m = &mut merged[machine];
        m.ops += step.ops;
        m.raw_messages += step.raw_messages;
        m.extra_alloc += step.extra_alloc;
        m.any_ran |= step.any_ran;
        if step.agg_max > m.agg_max {
            m.agg_max = step.agg_max;
        }
    }
    merged
}

/// One superstep's delivery, one dispatch: each destination takes the source
/// machines in ascending order, each as its chunk buckets in chunk order,
/// and folds (or groups) them per vertex, recording per-source counts.
/// Returns per-machine inbox bytes. Shared by the live loop and recovery
/// replay.
fn deliver_superstep<P: VertexProgram>(
    inboxes: &mut [Inbox<P::Msg>],
    shards: &[Shard<P::Value, P::Msg>],
    p: &P,
    combinable_now: bool,
    msg_mem: u64,
) -> Vec<u64> {
    exec::run_chunks(inboxes, |dst, inbox| {
        let sources = shards.iter().map(|s| s.chunks.iter().map(move |c| c.out[dst].as_slice()));
        inbox.deliver(sources, combinable_now, |a, b| p.combine(a, b));
        inbox.len() as u64 * msg_mem
    })
}

/// One shard per machine of `li`, holding its fragment's initial states and
/// flags, its route table, and pooled scratch for `chunk`-vertex sub-chunks.
pub(super) fn build_shards<P: VertexProgram>(
    g: &CsrGraph,
    li: &LocalIndex,
    prog: &mut P,
    chunk: usize,
) -> Vec<Shard<P::Value, P::Msg>> {
    let n = g.num_vertices();
    let machines = li.machines();
    let mut init_states: Vec<Option<P::Value>> = Vec::with_capacity(n);
    let mut init_active: Vec<bool> = Vec::with_capacity(n);
    for v in 0..n as VertexId {
        let (s, a) = prog.init(v, g);
        init_states.push(Some(s));
        init_active.push(a);
    }
    (0..machines)
        .map(|m| {
            // The fragment is ascending by global id, so the vertex at
            // position `i` has fragment-local id `i` — the invariant the
            // radix inbox's O(1) slicing rests on.
            let verts = li.globals_of(m).to_vec();
            let states = verts
                .iter()
                .map(|&v| init_states[v as usize].take().expect("vertex assigned twice"))
                .collect();
            let active = verts.iter().map(|&v| init_active[v as usize]).collect();
            let mut route_off = Vec::with_capacity(verts.len() + 1);
            route_off.push(0u32);
            let out_edges: u64 = verts.iter().map(|&v| g.out_degree(v)).sum();
            let mut routes = Vec::with_capacity(out_edges as usize);
            for &v in &verts {
                routes.extend(g.out_neighbors(v).iter().map(|&t| li.machine_local_of(t)));
                route_off.push(routes.len() as u32);
            }
            let chunks = (0..verts.len().div_ceil(chunk))
                .map(|_| ChunkScratch {
                    out: (0..machines).map(|_| Vec::new()).collect(),
                    active: 0,
                })
                .collect();
            let mut shard = Shard { verts, states, active, route_off, routes, chunk, chunks };
            shard.recount_active();
            shard
        })
        .collect()
}

/// The message path: shards compute, the shuffle delivers, and the
/// charges are the counts both report.
struct MessagePath<'a, P: VertexProgram> {
    g: &'a CsrGraph,
    prog: &'a mut P,
    /// Global↔local vertex id tables, built once: one lookup per out-edge
    /// for the route tables (per `Ctx::send` for other targets), and the
    /// dense address space the radix shuffle files messages under.
    li: LocalIndex,
    shards: Vec<Shard<P::Value, P::Msg>>,
    /// Per-machine inboxes (grouped per vertex by the shuffle), kept outside
    /// the shards so delivery can read every shard's buckets while writing
    /// one inbox.
    inboxes: Vec<Inbox<P::Msg>>,
    msg_mem: u64,
    /// Bytes of one message on the wire, target id included.
    wire: u64,
    /// Overwritten every superstep.
    charges: Charges,
}

impl<P: VertexProgram> Path for MessagePath<'_, P> {
    type Value = P::Value;
    type Snapshot = BspCheckpoint<P::Value, P::Msg>;

    fn step(&mut self, superstep: u64) -> (Step, &Charges) {
        let combinable_now = self.prog.combinable(superstep);
        let p: &P = self.prog;
        let c = &mut self.charges;
        // Compute phase: every shard advances independently on the host
        // thread pool; its inbox is read-only, its outboxes are its own.
        let steps =
            compute_superstep(&mut self.shards, &self.inboxes, &self.li, self.g, p, superstep);
        // Merge shard reports in machine-index order.
        let mut step = Step::default();
        for (m, s) in steps.iter().enumerate() {
            c.ops[m] = s.ops as f64;
            c.extra_alloc[m] = s.extra_alloc;
            step.any_ran |= s.any_ran;
            step.raw_messages += s.raw_messages;
            step.agg = step.agg.max(s.agg_max);
        }
        // Delivery phase: each destination folds every source's messages
        // per target, then the sources' results — one entry per distinct
        // target; without a combiner every message is buffered (the WCC
        // discovery superstep's memory spike, §5.8).
        let delivered =
            deliver_superstep(&mut self.inboxes, &self.shards, p, combinable_now, self.msg_mem);
        c.inbox_bytes.copy_from_slice(&delivered);
        // Wire accounting: the per-source, post-combine counts delivery
        // recorded.
        c.clear_deliveries();
        for (dst, inbox) in self.inboxes.iter().enumerate() {
            c.add_delivery(dst, inbox.per_source(), self.msg_mem, self.wire);
        }
        (step, &self.charges)
    }

    fn replay(&mut self, superstep: u64) {
        let p: &P = self.prog;
        compute_superstep(&mut self.shards, &self.inboxes, &self.li, self.g, p, superstep);
        deliver_superstep(
            &mut self.inboxes,
            &self.shards,
            p,
            p.combinable(superstep),
            self.msg_mem,
        );
    }

    fn capture(&self) -> Self::Snapshot {
        BspCheckpoint::capture(&self.shards, &self.inboxes)
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        snapshot.restore(&mut self.shards, &mut self.inboxes);
    }

    fn active(&self) -> u64 {
        self.shards.iter().map(|s| s.active_vertices() as u64).sum()
    }

    fn quiescent(&self) -> bool {
        self.inboxes.iter().all(|i| i.is_empty())
            && self.shards.iter().all(|s| s.active_vertices() == 0)
    }

    fn finished(&mut self, superstep: u64, agg: f64) -> bool {
        self.prog.finished(superstep, agg)
    }

    fn into_states(self) -> Vec<P::Value> {
        let mut states: Vec<Option<P::Value>> = (0..self.g.num_vertices()).map(|_| None).collect();
        for shard in self.shards {
            for (&v, s) in shard.verts.iter().zip(shard.states) {
                states[v as usize] = Some(s);
            }
        }
        states.into_iter().map(|s| s.expect("partition covers all vertices")).collect()
    }
}

/// Execute `prog` to completion over `g` partitioned by `part`.
///
/// The caller is responsible for phase bookkeeping and for charging the
/// permanent graph/state memory during its load phase; this function charges
/// compute, network, barriers, and transient message buffers.
pub fn run_bsp<P: VertexProgram>(
    cluster: &mut Cluster,
    g: &CsrGraph,
    part: &EdgeCutPartition,
    prog: &mut P,
    cfg: &BspConfig,
) -> Result<BspOutcome<P::Value>, SimError> {
    let machines = cluster.machines();
    assert_eq!(part.machines(), machines, "partition and cluster disagree");
    let li = LocalIndex::build(part);
    let shards = build_shards(g, &li, prog, exec::chunk_size());
    let inboxes = (0..machines).map(|m| Inbox::new(li.num_locals(m), prog.identity())).collect();
    let path = MessagePath {
        g,
        msg_mem: cluster.profile().bytes_per_message,
        wire: prog.wire_bytes() + 4,
        prog,
        li,
        shards,
        inboxes,
        charges: Charges::new(machines),
    };
    drive(cluster, path, cfg)
}

impl VertexProgram for PageRankProgram {
    type Value = f64;
    type Msg = f64;

    fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (f64, bool) {
        (self.initial_rank(v), true)
    }

    /// Superstep 0 scatters the initial ranks; superstep `s >= 1` applies
    /// `pr = δ + (1 - δ) Σ msgs` and scatters again.
    fn compute(
        &self,
        ctx: &mut Ctx<'_, f64>,
        g: &CsrGraph,
        v: VertexId,
        value: &mut f64,
        msgs: &[f64],
    ) -> bool {
        if ctx.superstep > 0 {
            let sum: f64 = msgs.iter().sum();
            let new = self.damping() + (1.0 - self.damping()) * sum;
            ctx.aggregate_max((new - *value).abs());
            *value = new;
        }
        let deg = g.out_degree(v);
        if deg > 0 {
            ctx.send_to_out_neighbors(*value / deg as f64);
        }
        true // all vertices participate until the aggregator stops the run
    }

    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    /// `-0.0`, not `0.0`: `-0.0 + x == x` for every `x`, `0.0 + -0.0 == 0.0`.
    fn identity(&self) -> f64 {
        -0.0
    }

    fn finished(&mut self, superstep: u64, max_aggregate: f64) -> bool {
        self.stops(superstep, max_aggregate)
    }

    fn wire_bytes(&self) -> u64 {
        8
    }
}

/// Per-vertex WCC state: the current component label plus the reverse edges
/// discovered in superstep 0 (the Giraph/Blogel materialization, charged via
/// [`Ctx::alloc`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WccState {
    pub label: VertexId,
    pub in_nbrs: Vec<VertexId>,
}

/// HashMin WCC with in-neighbour discovery (§3.2, §5.8): superstep 0 sends
/// vertex ids along out-edges so receivers can create reverse edges (these
/// messages must not be combined); afterwards the minimum label propagates
/// over the now-undirected adjacency.
pub struct WccProgram {
    /// Bytes charged per stored reverse edge.
    bytes_per_edge: u64,
}

impl WccProgram {
    pub fn new(bytes_per_edge: u64) -> Self {
        WccProgram { bytes_per_edge }
    }
}

impl VertexProgram for WccProgram {
    type Value = WccState;
    type Msg = VertexId;

    fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (WccState, bool) {
        (WccState { label: v, in_nbrs: Vec::new() }, true)
    }

    fn compute(
        &self,
        ctx: &mut Ctx<'_, VertexId>,
        g: &CsrGraph,
        v: VertexId,
        value: &mut WccState,
        msgs: &[VertexId],
    ) -> bool {
        match ctx.superstep {
            0 => {
                // Discovery: advertise our id along out-edges.
                for &t in g.out_neighbors(v) {
                    if t != v {
                        ctx.send(t, v);
                    }
                }
                true // must run in superstep 1 to process discoveries
            }
            1 => {
                // Store reverse edges and start HashMin.
                for &u in msgs {
                    value.in_nbrs.push(u);
                    ctx.alloc(self.bytes_per_edge);
                }
                let mut label = value.label;
                for &u in msgs {
                    label = label.min(u);
                }
                value.label = label;
                ctx.send_to_out_neighbors(label);
                for i in 0..value.in_nbrs.len() {
                    let t = value.in_nbrs[i];
                    ctx.send(t, label);
                }
                false
            }
            _ => {
                let m = msgs.iter().copied().min().unwrap_or(value.label);
                if m < value.label {
                    value.label = m;
                    ctx.send_to_out_neighbors(m);
                    for i in 0..value.in_nbrs.len() {
                        let t = value.in_nbrs[i];
                        ctx.send(t, m);
                    }
                }
                false
            }
        }
    }

    fn combine(&self, a: VertexId, b: VertexId) -> VertexId {
        a.min(b)
    }

    fn identity(&self) -> VertexId {
        VertexId::MAX
    }

    fn combinable(&self, superstep: u64) -> bool {
        // Discovery messages are identities, not labels (§5.8).
        superstep != 0
    }

    fn wire_bytes(&self) -> u64 {
        4
    }
}

/// Extract the component labels from a WCC run's final states.
pub fn wcc_labels(states: Vec<WccState>) -> Vec<VertexId> {
    states.into_iter().map(|s| s.label).collect()
}

/// BFS SSSP over directed out-edges (§3.3), unit weights.
pub struct SsspProgram {
    source: VertexId,
}

impl SsspProgram {
    pub fn new(source: VertexId) -> Self {
        SsspProgram { source }
    }
}

impl VertexProgram for SsspProgram {
    type Value = u32;
    type Msg = u32;

    fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (u32, bool) {
        if v == self.source {
            (0, true)
        } else {
            (UNREACHABLE, false)
        }
    }

    fn compute(
        &self,
        ctx: &mut Ctx<'_, u32>,
        _g: &CsrGraph,
        v: VertexId,
        value: &mut u32,
        msgs: &[u32],
    ) -> bool {
        let best = msgs.iter().copied().min().unwrap_or(*value).min(*value);
        if best < *value || (ctx.superstep == 0 && v == self.source) {
            *value = best;
            ctx.send_to_out_neighbors(best + 1);
        }
        false
    }

    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn identity(&self) -> u32 {
        u32::MAX
    }

    fn wire_bytes(&self) -> u64 {
        4
    }
}

/// K-hop (§3.3): BFS truncated at `k` hops; frontier vertices at depth `k`
/// do not expand further, so the run ends after `k + 1` supersteps at most.
pub struct KHopProgram {
    source: VertexId,
    k: u32,
}

impl KHopProgram {
    pub fn new(source: VertexId, k: u32) -> Self {
        KHopProgram { source, k }
    }
}

impl VertexProgram for KHopProgram {
    type Value = u32;
    type Msg = u32;

    fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (u32, bool) {
        if v == self.source {
            (0, true)
        } else {
            (UNREACHABLE, false)
        }
    }

    fn compute(
        &self,
        ctx: &mut Ctx<'_, u32>,
        _g: &CsrGraph,
        v: VertexId,
        value: &mut u32,
        msgs: &[u32],
    ) -> bool {
        let best = msgs.iter().copied().min().unwrap_or(*value).min(*value);
        if best < *value || (ctx.superstep == 0 && v == self.source) {
            *value = best;
            if best < self.k {
                ctx.send_to_out_neighbors(best + 1);
            }
        }
        false
    }

    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn identity(&self) -> u32 {
        u32::MAX
    }

    fn wire_bytes(&self) -> u64 {
        4
    }
}
