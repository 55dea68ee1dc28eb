//! Vertex-centric BSP runtime ("think like a vertex", §2.1).
//!
//! Giraph, Blogel-V and Gelly all run Pregel-style programs over
//! hash-partitioned vertices; they differ in cost constants (JVM vs C++)
//! and framework overheads, not in execution structure. `run_workload`
//! runs each of the four workloads as Pregel would, superstep by superstep:
//!
//! * messages sent in superstep `s` are delivered in `s + 1`;
//! * a vertex halts after it runs and is woken by incoming messages;
//! * a combiner merges a source machine's messages per target, then the
//!   sources' results, except in WCC's discovery superstep (§5.8);
//! * every vertex execution, message, and buffer allocation is charged to
//!   the simulated cluster, so supersteps cost what their slowest machine
//!   costs and message floods can OOM a machine.
//!
//! One superstep loop, `drive`, charges every run: compute, buffers,
//! wire, spill, barrier, trace, checkpoint, recovery replay and
//! termination. What a superstep computes and charges comes from one of two
//! paths behind the private `Path` seam, and neither files a message:
//!
//! * the *rank path* (`run_bsp_pagerank`, PageRank): every superstep is
//!   the same static broadcast, so it folds the ranks with
//!   `gather::RunGather` and charges integers of the partition computed
//!   once per run;
//! * the *label path* (WCC, SSSP, K-hop): the combiner, `min`, and every
//!   count a superstep is charged by are order-free and blind to a repeated
//!   message, so a superstep is one branch-free push per distinct target
//!   into position-indexed arrays, scanned in place on one host thread.
//!   WCC pushes its new label to its out- and in-neighbours, a traversal
//!   the next hop count to its out-neighbours; the charges still count
//!   one message per edge.
//!
//! Both are held to a test oracle, the *message path* (`message`, compiled
//! for tests only): a generic vertex-program runtime that files every
//! message through the radix shuffle of [`crate::shuffle`], on which the
//! four workloads are plain vertex programs. The differentials in
//! `bsp::tests` require the two to agree bit for bit: states, supersteps,
//! raw messages, runtime, metrics and journal, clean and crashed, at any
//! host thread count and chunk size.

use crate::gather::RunGather;
use crate::programs::PageRankProgram;
use crate::recovery::{Recovery, RecoveryModel};
use graphbench_algos::{Workload, WorkloadResult, UNREACHABLE};
use graphbench_graph::{CsrGraph, VertexId};
use graphbench_partition::EdgeCutPartition;
use graphbench_sim::{Cluster, SimError};

#[cfg(test)]
pub(crate) mod message;

/// Hard cap on supersteps (runaway guard).
const MAX_SUPERSTEPS: u64 = 200_000;

/// Runtime knobs that differ between systems.
#[derive(Debug, Clone)]
pub struct BspConfig {
    /// Cores used for compute on each machine.
    pub cores_for_compute: u32,
    /// Bytes read+written through local disk on every superstep, split
    /// across machines and multiplied by the cluster's superstep scale
    /// (Flink Gelly's delta iterations pass the solution set through
    /// managed memory / disk each round; 0 for in-memory BSP systems).
    pub per_superstep_spill_bytes: u64,
    /// Write a global checkpoint to HDFS every this many supersteps —
    /// Table 1's fault-tolerance mechanism for the Pregel family. `None`
    /// disables checkpointing (the study's configuration): an injected
    /// failure then restarts the whole execution.
    pub checkpoint_every: Option<u64>,
    /// State bytes a checkpoint persists (vertex values + graph), total
    /// across the cluster.
    pub checkpoint_bytes: u64,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            cores_for_compute: 4,
            per_superstep_spill_bytes: 0,
            checkpoint_every: None,
            checkpoint_bytes: 0,
        }
    }
}

/// Result of a BSP execution.
pub struct BspOutcome<V> {
    /// Final state per vertex.
    pub states: Vec<V>,
    /// Supersteps executed.
    pub supersteps: u64,
    /// Total messages produced (before combining).
    pub raw_messages: u64,
    /// Whether an injected machine failure was recovered from.
    pub recovered_from_failure: bool,
}

/// What one superstep charges, per machine: the integers the driver turns
/// into simulated time, bytes and memory.
#[derive(Clone)]
struct Charges {
    ops: Vec<f64>,
    /// Permanent program allocations.
    extra_alloc: Vec<u64>,
    /// Delivered inbox bytes, live until the next superstep consumes them.
    inbox_bytes: Vec<u64>,
    /// Post-combine send buffers, before the flush cap.
    send_buffer_bytes: Vec<u64>,
    sent: Vec<u64>,
    recv: Vec<u64>,
    msg_counts: Vec<u64>,
}

impl Charges {
    fn new(machines: usize) -> Charges {
        let zeros = || vec![0u64; machines];
        Charges {
            ops: vec![0.0; machines],
            extra_alloc: zeros(),
            inbox_bytes: zeros(),
            send_buffer_bytes: zeros(),
            sent: zeros(),
            recv: zeros(),
            msg_counts: zeros(),
        }
    }

    /// Zero what [`Charges::add_delivery`] accumulates.
    fn clear_deliveries(&mut self) {
        for v in [&mut self.send_buffer_bytes, &mut self.sent, &mut self.recv, &mut self.msg_counts]
        {
            v.fill(0);
        }
    }

    /// Add machine `dst`'s delivery: `per_source[src]` post-combine
    /// messages from each source machine. A machine's messages to itself
    /// fill its send buffer but never cross the wire.
    fn add_delivery(&mut self, dst: usize, per_source: &[u64], msg_mem: u64, wire: u64) {
        for (src, &count) in per_source.iter().enumerate() {
            self.send_buffer_bytes[src] += count * msg_mem;
            if count > 0 && src != dst {
                self.sent[src] += count * wire;
                self.recv[dst] += count * wire;
                self.msg_counts[src] += count;
            }
        }
    }
}

/// What one superstep reports to the driver besides its charges.
#[derive(Default)]
struct Step {
    raw_messages: u64,
    any_ran: bool,
    /// The merged max-aggregator.
    agg: f64,
}

/// The host side of a BSP run, stepped by [`drive`]: the rank path
/// ([`RankPath`], PageRank) or the label path ([`LabelPath`], WCC, SSSP and
/// K-hop), and in tests the message path. [`drive`] owns everything
/// simulated; a path owns the program state and says what each superstep
/// charges.
trait Path {
    /// Per-vertex state.
    type Value;
    /// What a recovery restores.
    type Snapshot;

    /// Run superstep `superstep`'s host work and return its report and
    /// charges.
    fn step(&mut self, superstep: u64) -> (Step, &Charges);

    /// Re-run superstep `superstep` after a restore, uncharged.
    fn replay(&mut self, superstep: u64);

    fn capture(&self) -> Self::Snapshot;

    fn restore(&mut self, snapshot: &Self::Snapshot);

    /// Vertices still active.
    fn active(&self) -> u64;

    /// Nothing is active and no message is in flight.
    fn quiescent(&self) -> bool;

    /// The program's stop decision after `superstep`, given the largest
    /// value any vertex aggregated in it.
    fn finished(&mut self, superstep: u64, agg: f64) -> bool;

    /// The final states, in global vertex order.
    fn into_states(self) -> Vec<Self::Value>;
}

/// The one superstep loop: charges, spill, barrier, trace, checkpoint,
/// recovery replay and termination, for every path. Generic, not `dyn`:
/// each path gets its own copy of the loop.
fn drive<S: Path>(
    cluster: &mut Cluster,
    mut path: S,
    cfg: &BspConfig,
) -> Result<BspOutcome<S::Value>, SimError> {
    let machines = cluster.machines();
    // Inbox bytes the last superstep allocated, and this superstep's capped
    // send buffers.
    let mut inbox_bytes = vec![0u64; machines];
    let mut send_buffer_bytes = vec![0u64; machines];
    let mut supersteps = 0u64;
    let mut raw_messages = 0u64;
    // Fault-tolerance bookkeeping: Table 1's checkpoint-replay mechanism.
    // The recovery point is the last global checkpoint (or the start of
    // execution without checkpointing); the snapshot holds the matching
    // program state so recovery can *recompute* rather than merely bill.
    // It is captured only when the fault plan actually schedules a crash.
    let mut recovery = Recovery::new(cluster, RecoveryModel::CheckpointReplay)
        .with_checkpoint_bytes(cfg.checkpoint_bytes);
    let mut snapshot: Option<(u64, S::Snapshot)> =
        cluster.plan_has_crashes().then(|| (0, path.capture()));

    loop {
        if supersteps >= MAX_SUPERSTEPS {
            return Err(SimError::Timeout);
        }
        // Label before the host work so its wallclock spans carry it.
        cluster.set_label("superstep");
        let (step, c) = path.step(supersteps);
        raw_messages += step.raw_messages;

        // Free last superstep's consumed inbox buffers.
        cluster.free_all(&inbox_bytes);
        inbox_bytes.copy_from_slice(&c.inbox_bytes);

        // Charge this superstep: sender buffers are flushed to the wire
        // whenever they fill (Giraph's message cache), so their resident
        // footprint is bounded; receiver buffers live until consumed next
        // superstep.
        let flush_cap = (cluster.spec().memory_per_machine as f64 * 0.03) as u64;
        for (b, &want) in send_buffer_bytes.iter_mut().zip(&c.send_buffer_bytes) {
            *b = want.min(flush_cap);
        }
        cluster.alloc_all(&send_buffer_bytes)?;
        cluster.alloc_all(&inbox_bytes)?;
        cluster.advance_compute(&c.ops, cfg.cores_for_compute)?;
        cluster.alloc_all(&c.extra_alloc)?; // permanent program allocations
        cluster.set_label("shuffle");
        cluster.exchange(&c.sent, &c.recv, &c.msg_counts)?;
        cluster.free_all(&send_buffer_bytes);
        if cfg.per_superstep_spill_bytes > 0 {
            cluster.set_label("spill");
            let scaled =
                (cfg.per_superstep_spill_bytes as f64 * cluster.spec().superstep_scale) as u64;
            let share = crate::even_share(scaled, machines);
            cluster.local_read(&share)?;
            cluster.local_write(&share)?;
        }
        // Pure observability hint: the live-vertex count the barrier
        // snapshot will carry; never feeds back into any simulated outcome.
        cluster.report_active(path.active());
        cluster.set_label("barrier");
        cluster.barrier()?;
        cluster.sample_trace();

        supersteps += 1;
        // Global checkpoint: all machines persist state to HDFS and the
        // recovery point (and its state snapshot) moves forward.
        if let Some(k) = cfg.checkpoint_every {
            if k > 0 && supersteps.is_multiple_of(k) && cfg.checkpoint_bytes > 0 {
                cluster.set_label("checkpoint");
                cluster.hdfs_write(&crate::even_share(cfg.checkpoint_bytes, machines))?;
                recovery.mark_checkpoint(cluster);
                if let Some(s) = snapshot.as_mut() {
                    *s = (supersteps, path.capture());
                }
            }
        }
        // Failure detection happens at the barrier. Recovery in the Pregel
        // model: a replacement worker reloads the last checkpoint (or the
        // input, without checkpointing) and every superstep since then is
        // re-executed. The simulated cost is the replay stall charged by
        // [`Recovery`]; the program state is restored from the snapshot and
        // genuinely recomputed — uncharged, since the stall already billed
        // it — so a recovered run equals the fault-free run by replay, not
        // by assumption.
        if recovery.at_barrier(cluster)? {
            if let Some((from, ckpt)) = &snapshot {
                path.restore(ckpt);
                for r in *from..supersteps {
                    path.replay(r);
                }
            }
        }
        let no_more_work = path.quiescent();
        let program_done = path.finished(supersteps - 1, step.agg);
        if program_done || no_more_work || !step.any_ran {
            // Free any undelivered inbox buffers before returning.
            cluster.set_label("superstep");
            cluster.free_all(&inbox_bytes);
            break;
        }
    }
    Ok(BspOutcome {
        states: path.into_states(),
        supersteps,
        raw_messages,
        recovered_from_failure: recovery.crashes_recovered() > 0,
    })
}

/// The rank path: synchronous PageRank without messages. Every superstep
/// of [`PageRankProgram`] is the same static broadcast — each vertex sends
/// `rank / out-degree` along every out-edge and every message combines —
/// so the inbox is a function of the ranks, and a superstep is one
/// [`RunGather`] over the partition plus the apply step. The run sums are
/// the message path's two-level fold: part `m` is machine `m`'s fragment in
/// ascending global id, each vertex's out-edges in CSR order, exactly the
/// order its chunk buckets reach `Inbox::deliver`. (The message path folds
/// from `-0.0`, the gather from `+0.0`; contributions are non-negative, so
/// no sum can tell them apart.)
///
/// The charges are integers of the partition, computed once per run: per
/// machine, its vertices run, its out-edges are sent, and from superstep 1
/// on each of its vertices with an in-edge receives one combined message;
/// each source machine sends each destination machine one message per
/// distinct target it reaches there.
struct RankPath<'a> {
    g: &'a CsrGraph,
    prog: &'a PageRankProgram,
    runs: RunGather,
    ranks: Vec<f64>,
    incoming: Vec<f64>,
    /// Superstep 0's charges, which receive nothing, and every later one's.
    first: Charges,
    later: Charges,
}

impl<'a> RankPath<'a> {
    fn new(
        cluster: &Cluster,
        g: &'a CsrGraph,
        part: &EdgeCutPartition,
        prog: &'a PageRankProgram,
    ) -> RankPath<'a> {
        let n = g.num_vertices();
        let machines = part.machines();
        let frags = part.vertices_per_machine();
        let edges_of = |m: usize| {
            frags[m].iter().flat_map(|&v| g.out_neighbors(v).iter().map(move |&t| (v, t)))
        };
        let runs = RunGather::build(n, machines, edges_of);
        // Vertices run plus out-edges sent per machine; distinct targets per
        // (destination, source) machine pair; whether a vertex has an
        // in-edge (the machine that reached it last, if any).
        let mut ops = vec![0u64; machines];
        let mut pairs = vec![0u64; machines * machines];
        let mut reached_by = vec![u32::MAX; n];
        for (m, frag) in frags.iter().enumerate() {
            ops[m] = frag.len() as u64;
            for (_, t) in edges_of(m) {
                ops[m] += 1;
                if reached_by[t as usize] != m as u32 {
                    reached_by[t as usize] = m as u32;
                    pairs[part.machine_of(t) as usize * machines + m] += 1;
                }
            }
        }
        let mut targets = vec![0u64; machines];
        for (t, &by) in reached_by.iter().enumerate() {
            if by != u32::MAX {
                targets[part.machine_of(t as VertexId) as usize] += 1;
            }
        }
        let msg_mem = cluster.profile().bytes_per_message;
        // An f64 share plus a 4-byte target id.
        let wire = 8 + 4;
        let mut first = Charges::new(machines);
        for dst in 0..machines {
            first.ops[dst] = ops[dst] as f64;
            first.inbox_bytes[dst] = targets[dst] * msg_mem;
            first.add_delivery(dst, &pairs[dst * machines..(dst + 1) * machines], msg_mem, wire);
        }
        let later = Charges {
            ops: ops.iter().zip(&targets).map(|(&o, &t)| (o + t) as f64).collect(),
            ..first.clone()
        };
        let ranks = (0..n as VertexId).map(|v| prog.initial_rank(v)).collect();
        RankPath { g, prog, runs, ranks, incoming: vec![0.0; n], first, later }
    }

    /// Superstep `superstep`'s update; returns the largest `|Δrank|`.
    /// Superstep 0 only sends.
    fn advance(&mut self, superstep: u64) -> f64 {
        if superstep == 0 {
            return 0.0;
        }
        let g = self.g;
        self.runs.gather(&self.ranks, |u| g.out_degree(u as VertexId), None, &mut self.incoming);
        crate::util::pagerank_apply(&mut self.ranks, &self.incoming, self.prog.damping())
    }
}

impl Path for RankPath<'_> {
    type Value = f64;
    /// The ranks: the inbox is a function of them.
    type Snapshot = Vec<f64>;

    fn step(&mut self, superstep: u64) -> (Step, &Charges) {
        let agg = self.advance(superstep);
        let step = Step { raw_messages: self.g.num_edges(), any_ran: !self.ranks.is_empty(), agg };
        (step, if superstep == 0 { &self.first } else { &self.later })
    }

    fn replay(&mut self, superstep: u64) {
        self.advance(superstep);
    }

    fn capture(&self) -> Vec<f64> {
        self.ranks.clone()
    }

    fn restore(&mut self, snapshot: &Vec<f64>) {
        self.ranks.clone_from(snapshot);
    }

    fn active(&self) -> u64 {
        self.ranks.len() as u64
    }

    fn quiescent(&self) -> bool {
        self.ranks.is_empty()
    }

    fn finished(&mut self, superstep: u64, agg: f64) -> bool {
        self.prog.stops(superstep, agg)
    }

    fn into_states(self) -> Vec<f64> {
        self.ranks
    }
}

/// `prog` on the rank path (see the module docs): the message path's
/// ranks, supersteps, charges and journal, with no per-edge message filed.
pub(crate) fn run_bsp_pagerank(
    cluster: &mut Cluster,
    g: &CsrGraph,
    part: &EdgeCutPartition,
    prog: &PageRankProgram,
    cfg: &BspConfig,
) -> Result<BspOutcome<f64>, SimError> {
    assert_eq!(part.machines(), cluster.machines(), "partition and cluster disagree");
    let path = RankPath::new(cluster, g, part, prog);
    drive(cluster, path, cfg)
}

/// Bytes of one label-path message on the wire: a `u32` value plus a 4-byte
/// target id.
const LABEL_WIRE: u64 = 4 + 4;

/// The label path: WCC, SSSP and K-hop without messages. Each sends one
/// `u32` per edge under a `min` combiner, and every count a superstep is
/// charged by (vertices run, messages sent and received, distinct targets
/// per (source, destination) machine) is order-free and blind to a second
/// copy of a message to the same target, so a superstep is one branch-free
/// push per distinct target into position-indexed arrays, with the message
/// path's states and charges.
///
/// Positions are machine-contiguous ([`Positions`]). See [`Routes`] for
/// what a position pushes along and what it is charged for. The first
/// scan builds the routes and the mailboxes ([`Run`]), so a run that fails
/// on WCC's superstep 0, whose charges come from the graph, never builds
/// them.
///
/// A position whose label drops to `x` pushes along its routes: WCC the
/// label itself, a traversal the next hop count `x + 1`, and only while
/// `x < bound` (the `k` of K-hop, or SSSP's `UNREACHABLE`). How a run
/// starts is its [`Start`]; from then on, each position with mail takes
/// the least value sent to it and pushes if that lowers its own.
struct LabelPath<'g> {
    g: &'g CsrGraph,
    pos: Positions,
    start: Start,
    /// Label per position; WCC's stays the discovered label until
    /// superstep 1 pushes it.
    label: Vec<VertexId>,
    run: Option<Run>,
    /// The last superstep's charges.
    charges: Charges,
    msg_mem: u64,
    /// Vertices with their active flag set: all after WCC's discovery
    /// superstep, none after any other.
    active: u64,
}

/// How a label-path run starts.
enum Start {
    /// WCC. Superstep 0 (discovery, uncombined) is integers of the graph,
    /// computed once: every vertex runs and sends its id along each
    /// non-self out-edge. Superstep 1 runs every vertex: it stores and
    /// charges the ids that arrived, takes their min with its own (the
    /// label the run starts from, computed with the integers) and pushes
    /// it along every route.
    Discovery {
        /// Messages superstep 1 receives per machine (its in-edges without
        /// self-loops), each stored at `bytes_per_edge`.
        received: Vec<u64>,
        bytes_per_edge: u64,
        /// Superstep 0's charges.
        charges: Charges,
    },
    /// A traversal from the vertex at position `at`, `bound` hops deep.
    /// Superstep 0 runs only the source: it receives nothing and pushes
    /// `0 + 1` if `0 < bound`, although its label does not drop.
    Source { at: usize, bound: u32 },
}

/// What the label path pushes along and into, built by its first scan.
struct Run {
    routes: Routes,
    /// The delivered inbox.
    inbox: Mail,
    /// The next inbox, as this superstep's pushes fill it.
    out: Outbox,
}

impl Run {
    fn new(g: &CsrGraph, pos: &Positions, with_in_edges: bool) -> Run {
        let routes = Routes::new(g, pos, with_in_edges);
        let n = pos.verts.len();
        let machines = pos.off.len() - 1;
        let empty = Mail { min: vec![VertexId::MAX; n], live: vec![0; n.div_ceil(64)] };
        Run {
            routes,
            inbox: empty.clone(),
            out: Outbox {
                mail: empty,
                stamp: vec![0; n],
                first: 0,
                machines,
                run: 0,
                pairs: vec![0; machines * machines],
            },
        }
    }
}

/// The label path's positions: machine `m` owns `off[m]..off[m + 1]`, its
/// fragment ascending by global id (as the message path's `LocalIndex`
/// numbers it), so a vertex's position is its machine's offset plus its
/// fragment-local id.
struct Positions {
    /// Global id per position.
    verts: Vec<VertexId>,
    /// Machine `m`'s positions are `off[m]..off[m + 1]`.
    off: Vec<usize>,
    /// Owner machine per position.
    mach: Vec<u32>,
}

impl Positions {
    fn new(g: &CsrGraph, part: &EdgeCutPartition) -> Positions {
        let frags = part.vertices_per_machine();
        let mut off = vec![0];
        let mut mach = Vec::with_capacity(g.num_vertices());
        for (m, frag) in frags.iter().enumerate() {
            mach.resize(mach.len() + frag.len(), m as u32);
            off.push(mach.len());
        }
        let verts = frags.concat();
        assert_eq!(verts.len(), g.num_vertices(), "partition and graph disagree");
        Positions { verts, off, mach }
    }

    /// Each vertex's position.
    fn pos_of(&self) -> Vec<u32> {
        let mut pos_of = vec![0u32; self.verts.len()];
        for (p, &v) in self.verts.iter().enumerate() {
            pos_of[v as usize] = p as u32;
        }
        pos_of
    }
}

/// The label path's routes, by position.
///
/// A vertex program sends along its *raw routes*: a traversal along its
/// out-edges, self-loops and parallel edges included; WCC along those and
/// its in-edges without self-loops (the in-neighbours discovery stores).
/// A second send of one value to one target in a superstep changes nothing
/// the label path keeps (`min` is idempotent; the has-mail bit and the
/// target's stamp are set already), so the table holds each position's
/// distinct targets once: on a symmetric graph, half of WCC's raw routes.
/// The charges still count raw routes: `raw` holds the count, and WCC
/// computes what superstep 0 and discovery need of them from the graph.
struct Routes {
    /// Position `p`'s distinct targets are `to[at[p]..at[p + 1]]`, in order
    /// of their first raw route.
    at: Vec<usize>,
    to: Vec<u32>,
    /// Raw routes per position: the messages a push from it is charged as.
    raw: Vec<u32>,
}

impl Routes {
    /// Each position's routes: its out-edges, and `with_in_edges` its
    /// in-edges without self-loops, each target once.
    fn new(g: &CsrGraph, pos: &Positions, with_in_edges: bool) -> Routes {
        let (n, pos_of) = (g.num_vertices(), pos.pos_of());
        let ins = with_in_edges.then(|| g.in_index());
        let mut at = Vec::with_capacity(n + 1);
        at.push(0);
        let mut raw = Vec::with_capacity(n);
        // Room for every raw route. Zeroed, so that fresh pages past the
        // distinct targets stay untouched; truncated, not shrunk, so that
        // the table is never copied.
        let mut to = vec![0u32; (1 + usize::from(with_in_edges)) * g.num_edges() as usize];
        let mut len = 0;
        // `seen[t] == p`: position `p` met `t` already. Only a self-loop
        // in-edge is met and not kept, and every later `t == p` is one too.
        let mut seen = vec![u32::MAX; n];
        for (p, &v) in pos.verts.iter().enumerate() {
            let p = p as u32;
            let mut raw_p = 0usize;
            // No branch per route: write it always, keep it if new.
            let mut route = |t: u32, sent: bool| {
                to[len] = t;
                len += usize::from(sent & (seen[t as usize] != p));
                seen[t as usize] = p;
                raw_p += usize::from(sent);
            };
            for &u in g.out_neighbors(v) {
                route(pos_of[u as usize], true);
            }
            if let Some(ins) = ins {
                for &u in ins.neighbors(v) {
                    route(pos_of[u as usize], u != v);
                }
            }
            raw.push(u32::try_from(raw_p).expect("a vertex has under 2^32 routes"));
            at.push(len);
        }
        to.truncate(len);
        Routes { at, to, raw }
    }

    fn of(&self, p: usize) -> &[u32] {
        &self.to[self.at[p]..self.at[p + 1]]
    }
}

/// An inbox by position: the least label sent to each position
/// (`VertexId::MAX` if none) and the has-mail bitmap. Empty between uses:
/// every read resets what it consumed.
#[derive(Clone)]
struct Mail {
    min: Vec<VertexId>,
    live: Vec<u64>,
}

/// The next inbox and what filling it is charged by.
struct Outbox {
    mail: Mail,
    /// `stamp[t] == first + m`: source machine `m` already reached `t`
    /// this superstep. One epoch per (superstep, source machine); `first`
    /// moves on by the machine count per superstep. A stamp holds only the
    /// last source to reach `t`, so the count is right only if, within a
    /// superstep, each source machine's pushes come in one unbroken run:
    /// [`Outbox::push`] holds callers to ascending source machines.
    stamp: Vec<u32>,
    first: u32,
    machines: usize,
    /// The source machine of the open run (checked in debug builds).
    run: usize,
    /// Distinct targets per (destination, source) machine pair.
    pairs: Vec<u64>,
}

impl Outbox {
    /// Start a superstep: clear the pair counts and move to fresh epochs,
    /// above every stamp left.
    fn begin(&mut self) {
        self.pairs.fill(0);
        let m = self.machines as u32;
        if self.first > u32::MAX - 2 * m {
            self.stamp.fill(0);
            self.first = 0;
        }
        self.first += m;
        self.run = 0;
    }

    /// File `x` for each of `targets`, sent from machine `src`: the target
    /// keeps the least label, gets its has-mail bit, and counts once per
    /// source machine. No branch per target. Within a superstep, calls
    /// must come in ascending `src`, so that each source machine's pushes
    /// are one unbroken run (see `stamp`). Always inlined: `scan` calls it
    /// from three places, and as a call per pushing position it cost
    /// BV-wcc-WRN about a tenth of its time.
    #[inline(always)]
    fn push(&mut self, mach: &[u32], targets: &[u32], x: VertexId, src: usize) {
        debug_assert!(src >= self.run, "machine {src} pushed after machine {}'s run", self.run);
        self.run = src;
        let epoch = self.first + src as u32;
        for &t in targets {
            let t = t as usize;
            self.mail.min[t] = self.mail.min[t].min(x);
            self.mail.live[t / 64] |= 1 << (t % 64);
            let pair = mach[t] as usize * self.machines + src;
            self.pairs[pair] += u64::from(self.stamp[t] != epoch);
            self.stamp[t] = epoch;
        }
    }
}

/// The label path's recovery snapshot: the labels and the delivered inbox
/// at a superstep boundary (none before the first scan).
struct LabelSnapshot {
    label: Vec<VertexId>,
    inbox: Option<Mail>,
    active: u64,
}

impl<'g> LabelPath<'g> {
    /// HashMin WCC, storing each discovered in-edge at `bytes_per_edge`.
    fn wcc(
        cluster: &Cluster,
        g: &'g CsrGraph,
        part: &EdgeCutPartition,
        bytes_per_edge: u64,
    ) -> LabelPath<'g> {
        let pos = Positions::new(g, part);
        let pos_of = pos.pos_of();
        let machines = part.machines();
        // From the graph, before any table is built: superstep 0's sends
        // per (destination, source) machine, one per non-self out-edge, and
        // superstep 1's label per position, the least of its id and its
        // in-neighbours' ids.
        let mut sends = vec![0u64; machines * machines];
        let mut label = pos.verts.clone();
        for (p, &v) in pos.verts.iter().enumerate() {
            let src = pos.mach[p] as usize;
            for &u in g.out_neighbors(v) {
                let t = pos_of[u as usize] as usize;
                sends[pos.mach[t] as usize * machines + src] += u64::from(t != p);
                label[t] = label[t].min(v);
            }
        }
        // Superstep 0: every vertex runs and sends; nothing is combined.
        let msg_mem = cluster.profile().bytes_per_message;
        let mut charges = Charges::new(machines);
        let mut ops: Vec<u64> = pos.off.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
        let mut received = vec![0u64; machines];
        for dst in 0..machines {
            let row = &sends[dst * machines..(dst + 1) * machines];
            received[dst] = row.iter().sum();
            row.iter().zip(&mut ops).for_each(|(&c, o)| *o += c);
            charges.inbox_bytes[dst] = received[dst] * msg_mem;
            charges.add_delivery(dst, row, msg_mem, LABEL_WIRE);
        }
        charges.ops = ops.iter().map(|&o| o as f64).collect();
        let start = Start::Discovery { received, bytes_per_edge, charges };
        LabelPath::with(cluster, g, pos, start, label)
    }

    /// Unit-weight BFS from `source` over out-edges, `bound` hops deep.
    fn traversal(
        cluster: &Cluster,
        g: &'g CsrGraph,
        part: &EdgeCutPartition,
        source: VertexId,
        bound: u32,
    ) -> LabelPath<'g> {
        let pos = Positions::new(g, part);
        let at = pos.verts.iter().position(|&v| v == source).expect("the source is a vertex");
        let mut label = vec![UNREACHABLE; pos.verts.len()];
        label[at] = 0;
        LabelPath::with(cluster, g, pos, Start::Source { at, bound }, label)
    }

    fn with(
        cluster: &Cluster,
        g: &'g CsrGraph,
        pos: Positions,
        start: Start,
        label: Vec<VertexId>,
    ) -> LabelPath<'g> {
        let machines = pos.off.len() - 1;
        LabelPath {
            g,
            pos,
            start,
            label,
            run: None,
            charges: Charges::new(machines),
            msg_mem: cluster.profile().bytes_per_message,
            active: 0,
        }
    }

    /// Superstep `superstep` from WCC's superstep 1 or a traversal's 0 on,
    /// for a traversal if `HOPS` (pushing `x + 1` while `x < bound`), else
    /// for WCC (pushing `x`; `bound` unread). Compiled once per kind, so
    /// WCC's scan has no add or bound test. Fills `charges`; returns the
    /// messages sent and whether any vertex ran.
    ///
    /// It scans in place, in ascending position, pushing as it goes: every
    /// push reads only the delivered inbox and writes only the next one, so
    /// the labels and charges are the same at any thread and chunk count,
    /// and each source machine's pushes form one unbroken run (what the
    /// outbox's distinct-target count needs).
    fn scan<const HOPS: bool>(&mut self, superstep: u64, bound: u32) -> (u64, bool) {
        let LabelPath { g, pos, start, label, run, charges: c, msg_mem, .. } = self;
        // WCC routes along in-edges too; a traversal does not.
        let Run { routes: r, inbox, out } = run.get_or_insert_with(|| Run::new(g, pos, !HOPS));
        let machines = out.machines;
        out.begin();
        let mach = &pos.mach;
        let hop = u32::from(HOPS);
        // Vertices run, messages received and messages sent, per machine,
        // and the bytes each received message is stored at.
        let mut ran = vec![0u64; machines];
        let mut received = vec![0u64; machines];
        let mut sent = vec![0u64; machines];
        let mut stored = 0;
        match (&*start, superstep) {
            // WCC's superstep 1: every position runs and pushes the label
            // it starts with, its discovered one.
            (Start::Discovery { received: discovered, bytes_per_edge, .. }, 1) => {
                received.copy_from_slice(discovered);
                stored = *bytes_per_edge;
                for (p, &x) in label.iter().enumerate() {
                    let m = mach[p] as usize;
                    ran[m] += 1;
                    sent[m] += u64::from(r.raw[p]);
                    out.push(mach, r.of(p), x, m);
                }
            }
            // A traversal's superstep 0: only the source runs.
            (&Start::Source { at: p, .. }, 0) => {
                let m = mach[p] as usize;
                ran[m] += 1;
                if label[p] < bound {
                    sent[m] += u64::from(r.raw[p]);
                    out.push(mach, r.of(p), label[p] + hop, m);
                }
            }
            // The positions with mail run.
            _ => {
                for w in 0..inbox.live.len() {
                    let mut bits = std::mem::take(&mut inbox.live[w]);
                    while bits != 0 {
                        let p = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let x = std::mem::replace(&mut inbox.min[p], VertexId::MAX);
                        let m = mach[p] as usize;
                        ran[m] += 1;
                        if x < label[p] {
                            label[p] = x;
                            if !HOPS || x < bound {
                                sent[m] += u64::from(r.raw[p]);
                                out.push(mach, r.of(p), x + hop, m);
                            }
                        }
                    }
                }
                // One combined message per position with mail.
                received.copy_from_slice(&ran);
            }
        }
        // What was pushed is the next superstep's inbox; the consumed one
        // is the empty outbox.
        std::mem::swap(inbox, &mut out.mail);

        c.clear_deliveries();
        for m in 0..machines {
            c.ops[m] = (ran[m] + received[m] + sent[m]) as f64;
            c.extra_alloc[m] = received[m] * stored;
            let (lo, hi) = (pos.off[m], pos.off[m + 1]);
            let mail = crate::shuffle::set_bits(&inbox.live, lo, hi).count() as u64;
            c.inbox_bytes[m] = mail * *msg_mem;
            let row = &out.pairs[m * machines..(m + 1) * machines];
            c.add_delivery(m, row, *msg_mem, LABEL_WIRE);
        }
        (sent.iter().sum(), ran.iter().any(|&r| r > 0))
    }
}

impl Path for LabelPath<'_> {
    type Value = VertexId;
    type Snapshot = LabelSnapshot;

    fn step(&mut self, superstep: u64) -> (Step, &Charges) {
        self.active = 0;
        let (raw_messages, any_ran) = match &self.start {
            Start::Discovery { received, charges, .. } if superstep == 0 => {
                self.active = self.label.len() as u64;
                self.charges.clone_from(charges);
                (received.iter().sum(), self.active > 0)
            }
            Start::Discovery { .. } => self.scan::<false>(superstep, VertexId::MAX),
            &Start::Source { bound, .. } => self.scan::<true>(superstep, bound),
        };
        (Step { raw_messages, any_ran, agg: 0.0 }, &self.charges)
    }

    fn replay(&mut self, superstep: u64) {
        self.step(superstep);
    }

    fn capture(&self) -> LabelSnapshot {
        let inbox = self.run.as_ref().map(|run| run.inbox.clone());
        LabelSnapshot { label: self.label.clone(), inbox, active: self.active }
    }

    fn restore(&mut self, snapshot: &LabelSnapshot) {
        self.label.clone_from(&snapshot.label);
        match (&mut self.run, &snapshot.inbox) {
            (Some(run), Some(inbox)) => run.inbox.clone_from(inbox),
            // From before the first scan, which the replay runs again.
            (run, _) => *run = None,
        }
        self.active = snapshot.active;
    }

    fn active(&self) -> u64 {
        self.active
    }

    fn quiescent(&self) -> bool {
        self.active == 0
            && !self.run.as_ref().is_some_and(|run| run.inbox.live.iter().any(|&w| w != 0))
    }

    fn finished(&mut self, _superstep: u64, _agg: f64) -> bool {
        false
    }

    fn into_states(self) -> Vec<VertexId> {
        let mut labels = vec![0; self.label.len()];
        for (&v, &l) in self.pos.verts.iter().zip(&self.label) {
            labels[v as usize] = l;
        }
        labels
    }
}

/// WCC, SSSP or K-hop on the label path (see the module docs): the message
/// path's states, supersteps, charges and journal, with no message filed.
/// WCC stores each discovered in-edge at `wcc_bytes_per_edge`.
fn run_bsp_labels(
    cluster: &mut Cluster,
    g: &CsrGraph,
    part: &EdgeCutPartition,
    workload: Workload,
    wcc_bytes_per_edge: u64,
    cfg: &BspConfig,
) -> Result<BspOutcome<VertexId>, SimError> {
    assert_eq!(part.machines(), cluster.machines(), "partition and cluster disagree");
    let path = match workload {
        Workload::Wcc => LabelPath::wcc(cluster, g, part, wcc_bytes_per_edge),
        Workload::Sssp { source } => LabelPath::traversal(cluster, g, part, source, UNREACHABLE),
        Workload::KHop { source, k } => LabelPath::traversal(cluster, g, part, source, k),
        Workload::PageRank(_) => unreachable!("PageRank takes the rank path"),
    };
    drive(cluster, path, cfg)
}

/// Run `workload` over `g` partitioned by `part`: PageRank on the rank
/// path, WCC, SSSP and K-hop on the label path. WCC stores each discovered
/// in-edge at `wcc_bytes_per_edge` (the engine's reverse-edge
/// representation).
///
/// The caller is responsible for phase bookkeeping and for charging the
/// permanent graph/state memory during its load phase; this function
/// charges compute, network, barriers, and transient message buffers.
pub(crate) fn run_workload(
    cluster: &mut Cluster,
    g: &CsrGraph,
    part: &EdgeCutPartition,
    workload: Workload,
    wcc_bytes_per_edge: u64,
    cfg: &BspConfig,
) -> Result<WorkloadResult, SimError> {
    if let Workload::PageRank(pr) = workload {
        let out = run_bsp_pagerank(cluster, g, part, &PageRankProgram::new(pr), cfg)?;
        return Ok(WorkloadResult::Ranks(out.states));
    }
    let states = run_bsp_labels(cluster, g, part, workload, wcc_bytes_per_edge, cfg)?.states;
    Ok(match workload {
        Workload::Wcc => WorkloadResult::Labels(states),
        _ => WorkloadResult::Distances(states),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::message::{
        build_shards, compute_superstep, run_bsp, wcc_labels, Ctx, KHopProgram, SsspProgram,
        VertexProgram, WccProgram,
    };
    use super::*;
    use crate::shuffle::Inbox;
    use graphbench_algos::reference;
    use graphbench_algos::workload::{PageRankConfig, StopCriterion};
    use graphbench_graph::builder::csr_from_pairs;
    use graphbench_graph::rng::{for_each_seed, Rng};
    use graphbench_partition::LocalIndex;
    use graphbench_sim::{ClusterSpec, CostProfile, FaultPlan};

    /// Propagate the maximum vertex id through the graph (a tiny well-
    /// understood fixpoint program for exercising the runtime).
    struct MaxProp;

    impl VertexProgram for MaxProp {
        type Value = VertexId;
        type Msg = VertexId;

        fn init(&mut self, v: VertexId, _g: &CsrGraph) -> (VertexId, bool) {
            (v, true)
        }

        fn compute(
            &self,
            ctx: &mut Ctx<'_, VertexId>,
            g: &CsrGraph,
            v: VertexId,
            value: &mut VertexId,
            msgs: &[VertexId],
        ) -> bool {
            let best = msgs.iter().copied().max().unwrap_or(*value).max(*value);
            let changed = best > *value || ctx.superstep == 0;
            *value = best;
            if changed {
                for &t in g.out_neighbors(v) {
                    ctx.send(t, best);
                }
            }
            false // halt; messages reactivate
        }

        fn combine(&self, a: VertexId, b: VertexId) -> VertexId {
            a.max(b)
        }

        fn identity(&self) -> VertexId {
            0
        }

        fn wire_bytes(&self) -> u64 {
            4
        }
    }

    fn run_maxprop(machines: usize) -> (Vec<VertexId>, u64, Cluster) {
        // A directed cycle plus a chord: max id 5 reaches everyone.
        let g = csr_from_pairs(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 0)]);
        let part = EdgeCutPartition::random(6, machines, 1);
        let mut cluster =
            Cluster::new(ClusterSpec::r3_xlarge(machines, 1 << 30), CostProfile::cpp_mpi());
        let mut prog = MaxProp;
        let out = run_bsp(&mut cluster, &g, &part, &mut prog, &BspConfig::default()).unwrap();
        (out.states, out.supersteps, cluster)
    }

    #[test]
    fn fixpoint_reaches_everyone() {
        let (states, supersteps, _) = run_maxprop(4);
        assert_eq!(states, vec![5, 5, 5, 5, 5, 5]);
        // The cycle needs about one superstep per hop.
        assert!((5..=9).contains(&supersteps), "supersteps {supersteps}");
    }

    #[test]
    fn result_is_identical_across_cluster_sizes() {
        let (a, _, _) = run_maxprop(1);
        let (b, _, _) = run_maxprop(4);
        let (c, _, _) = run_maxprop(3);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn result_and_metrics_identical_across_thread_counts() {
        // The executor guarantee: host threads change scheduling only —
        // states, simulated clock, memory peaks, and network totals must be
        // bit-for-bit identical between the serial and parallel paths.
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::exec::set_threads(1);
        let (states_1, steps_1, cluster_1) = run_maxprop(4);
        crate::exec::set_threads(4);
        let (states_4, steps_4, cluster_4) = run_maxprop(4);
        crate::exec::set_threads(1);
        assert_eq!(states_1, states_4);
        assert_eq!(steps_1, steps_4);
        assert_eq!(cluster_1.elapsed().to_bits(), cluster_4.elapsed().to_bits());
        assert_eq!(cluster_1.mem_peaks(), cluster_4.mem_peaks());
        assert_eq!(cluster_1.total_net_bytes(), cluster_4.total_net_bytes());
        assert_eq!(cluster_1.total_messages(), cluster_4.total_messages());
    }

    #[test]
    fn result_and_metrics_identical_across_chunk_sizes() {
        // The sub-chunk counterpart of the thread-count guarantee: where
        // the intra-machine chunk boundaries fall must be invisible to
        // every simulated metric, because counters stay integral until the
        // per-machine merge and the merge runs in chunk order. Chunk size 1
        // puts every vertex in its own task — the most hostile split.
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::exec::set_threads(4);
        let mut baseline = None;
        for chunk in [1usize, 2, 3, 4096] {
            crate::exec::set_chunk_size(chunk);
            let (states, steps, cluster) = run_maxprop(4);
            let key = (
                states,
                steps,
                cluster.elapsed().to_bits(),
                cluster.mem_peaks().to_vec(),
                cluster.total_net_bytes(),
                cluster.total_messages(),
            );
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(&key, b, "diverged at chunk size {chunk}"),
            }
        }
        crate::exec::set_chunk_size(4096);
        crate::exec::set_threads(1);
    }

    /// Folds every incoming payload into the vertex value with an
    /// order-sensitive hash — any difference in per-vertex inbox contents
    /// or arrival order changes the final states. Not combinable, so the
    /// counting delivery carries every message. Payloads name their target
    /// in the high half, so a misfiled message is caught on receipt.
    struct TraceInbox {
        rounds: u64,
    }

    impl VertexProgram for TraceInbox {
        type Value = u64;
        type Msg = u64;

        fn init(&mut self, _v: VertexId, _g: &CsrGraph) -> (u64, bool) {
            (1, true)
        }

        fn compute(
            &self,
            ctx: &mut Ctx<'_, u64>,
            g: &CsrGraph,
            v: VertexId,
            value: &mut u64,
            msgs: &[u64],
        ) -> bool {
            for &m in msgs {
                assert_eq!(m >> 32, v as u64, "message delivered to the wrong vertex");
                *value = value.wrapping_mul(1_000_003).wrapping_add(m);
            }
            for &t in g.out_neighbors(v) {
                ctx.send(t, (t as u64) << 32 | (v as u64 * 100 + ctx.superstep));
            }
            true
        }

        fn combine(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }

        fn identity(&self) -> u64 {
            0
        }

        fn combinable(&self, _s: u64) -> bool {
            false
        }

        fn finished(&mut self, superstep: u64, _max_aggregate: f64) -> bool {
            superstep + 1 >= self.rounds
        }

        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    #[test]
    fn per_vertex_inbox_contents_identical_across_threads_and_chunks() {
        // Fan-in heavy graph: several sources per target, spread over
        // machines, so inboxes hold multi-message groups from multiple
        // senders.
        let g = csr_from_pairs(&[
            (0, 4),
            (1, 4),
            (2, 4),
            (3, 4),
            (5, 4),
            (4, 0),
            (4, 1),
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 5),
            (5, 0),
        ]);
        let run = |threads: usize, chunk: usize| {
            crate::exec::set_threads(threads);
            crate::exec::set_chunk_size(chunk);
            let part = EdgeCutPartition::random(6, 3, 2);
            let mut cluster =
                Cluster::new(ClusterSpec::r3_xlarge(3, 1 << 30), CostProfile::cpp_mpi());
            run_bsp(&mut cluster, &g, &part, &mut TraceInbox { rounds: 6 }, &BspConfig::default())
                .unwrap()
                .states
        };
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let serial = run(1, 4096);
        let split = run(4, 1);
        crate::exec::set_threads(1);
        crate::exec::set_chunk_size(4096);
        assert_eq!(serial, split);
    }

    fn run_maxprop_with_faults(
        plan: FaultPlan,
        cfg: &BspConfig,
    ) -> (BspOutcome<VertexId>, Cluster) {
        let g = csr_from_pairs(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 0)]);
        let part = EdgeCutPartition::random(6, 4, 1);
        let mut cluster = Cluster::new(
            ClusterSpec { faults: plan, ..ClusterSpec::r3_xlarge(4, 1 << 30) },
            CostProfile::cpp_mpi(),
        );
        let out = run_bsp(&mut cluster, &g, &part, &mut MaxProp, cfg).unwrap();
        (out, cluster)
    }

    #[test]
    fn recovery_replay_reproduces_fault_free_states() {
        // With checkpointing: the crash restores the snapshot, replays the
        // supersteps since, and must land on the fault-free answer while
        // costing extra simulated time.
        let cfg = BspConfig {
            checkpoint_every: Some(2),
            checkpoint_bytes: 1 << 20,
            ..BspConfig::default()
        };
        let (clean, c_clean) = run_maxprop_with_faults(FaultPlan::none(), &cfg);
        let (faulted, c_faulted) = run_maxprop_with_faults(FaultPlan::single(0.01, 1), &cfg);
        assert_eq!(clean.states, faulted.states);
        assert!(faulted.recovered_from_failure);
        assert!(!clean.recovered_from_failure);
        assert!(c_faulted.elapsed() > c_clean.elapsed());
        assert!(c_faulted.journal().events().iter().any(|e| e.label == "recovery"));
    }

    /// SSSP from vertex 0 over a 400-vertex directed path plus the chord
    /// 5 → 300, on 3 machines: ~300 supersteps of one or two message
    /// targets each, in fragments of ~133 vertices (three bitmap words), so
    /// every superstep after the first takes the bitmap walk.
    fn run_path_sssp(plan: FaultPlan, cfg: &BspConfig) -> (BspOutcome<u32>, Cluster) {
        let mut pairs: Vec<(u32, u32)> = (0..399).map(|i| (i, i + 1)).collect();
        pairs.push((5, 300));
        let g = csr_from_pairs(&pairs);
        let part = EdgeCutPartition::random(400, 3, 7);
        let mut cluster = Cluster::new(
            ClusterSpec { faults: plan, ..ClusterSpec::r3_xlarge(3, 1 << 30) },
            CostProfile::cpp_mpi(),
        );
        let mut prog = SsspProgram::new(0);
        let out = run_bsp(&mut cluster, &g, &part, &mut prog, cfg).unwrap();
        (out, cluster)
    }

    #[test]
    fn message_driven_frontier_is_invisible_across_threads_and_chunks() {
        // Chunk sizes on both sides of a bitmap word (63, 64, 65) put the
        // walk's end masks on, before and after word boundaries; chunk 1
        // makes every range a single bit.
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut baseline = None;
        for threads in [1usize, 4] {
            crate::exec::set_threads(threads);
            for chunk in [1usize, 2, 3, 63, 64, 65, 4096] {
                crate::exec::set_chunk_size(chunk);
                let (out, cluster) = run_path_sssp(FaultPlan::none(), &BspConfig::default());
                let key = (
                    out.states,
                    out.supersteps,
                    cluster.elapsed().to_bits(),
                    cluster.mem_peaks().to_vec(),
                    cluster.total_net_bytes(),
                    cluster.total_messages(),
                );
                match &baseline {
                    None => baseline = Some(key),
                    Some(b) => assert_eq!(&key, b, "diverged at threads {threads} chunk {chunk}"),
                }
            }
        }
        crate::exec::set_chunk_size(4096);
        crate::exec::set_threads(1);
        let (states, supersteps, ..) = baseline.unwrap();
        let want: Vec<u32> = (0..400).map(|v| if v < 300 { v } else { v - 294 }).collect();
        assert_eq!(states, want);
        assert_eq!(supersteps, 301);
    }

    #[test]
    fn recovery_replay_restores_a_sparse_frontier() {
        // The crash lands mid-run, long after every chunk's active count
        // fell to zero. Restore must bring counts, flags and inbox bitmaps
        // back together: to a checkpoint that is itself sparse, and —
        // without checkpointing — to the input, where the source's chunk
        // is self-active again.
        let checkpointed = BspConfig {
            checkpoint_every: Some(2),
            checkpoint_bytes: 1 << 20,
            ..BspConfig::default()
        };
        for cfg in [checkpointed, BspConfig::default()] {
            let (clean, c_clean) = run_path_sssp(FaultPlan::none(), &cfg);
            let crash = FaultPlan::single(c_clean.elapsed() * 0.4, 1);
            let (faulted, c_faulted) = run_path_sssp(crash, &cfg);
            assert!(faulted.recovered_from_failure);
            assert_eq!(clean.states, faulted.states);
            assert_eq!(clean.supersteps, faulted.supersteps);
            assert!(c_faulted.elapsed() > c_clean.elapsed());
        }
    }

    #[test]
    fn restart_from_input_without_checkpoints_is_still_correct() {
        let cfg = BspConfig::default(); // no checkpointing (the study's setup)
        let (clean, _) = run_maxprop_with_faults(FaultPlan::none(), &cfg);
        let (faulted, c_faulted) = run_maxprop_with_faults(FaultPlan::single(0.05, 2), &cfg);
        assert_eq!(clean.states, faulted.states);
        assert!(faulted.recovered_from_failure);
        assert!(c_faulted.registry().counter("faults.crash.recovered") >= 1);
    }

    #[test]
    fn unreached_fault_is_not_consumed() {
        let cfg = BspConfig::default();
        let (out, cluster) = run_maxprop_with_faults(FaultPlan::single(80_000.0, 1), &cfg);
        assert!(!out.recovered_from_failure);
        assert_eq!(cluster.unreached_faults().len(), 1);
    }

    #[test]
    fn single_machine_sends_no_network_bytes() {
        let (_, _, cluster) = run_maxprop(1);
        assert_eq!(cluster.total_net_bytes(), 0);
        assert_eq!(cluster.total_messages(), 0);
    }

    #[test]
    fn multi_machine_uses_the_network() {
        let (_, _, cluster) = run_maxprop(3);
        assert!(cluster.total_net_bytes() > 0);
        assert!(cluster.total_messages() > 0);
    }

    #[test]
    fn message_buffers_are_transient() {
        let (_, _, cluster) = run_maxprop(2);
        // All message memory must be freed by the end.
        for m in 0..2 {
            assert_eq!(cluster.mem_in_use(m), 0);
        }
        // But peaks were non-zero.
        assert!(cluster.mem_peaks().iter().any(|&p| p > 0));
    }

    #[test]
    fn oom_when_message_buffers_exceed_budget() {
        let g = csr_from_pairs(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let part = EdgeCutPartition::random(4, 2, 1);
        let mut cluster = Cluster::new(
            ClusterSpec::r3_xlarge(2, 4), // 4 bytes: nothing fits
            CostProfile::jvm_hadoop(),
        );
        let err = run_bsp(&mut cluster, &g, &part, &mut MaxProp, &BspConfig::default());
        assert_eq!(err.err().map(|e| e.code().to_string()), Some("OOM".into()));
    }

    /// A program that never quiesces on its own but stops via `finished`.
    struct FixedRounds {
        rounds: u64,
    }

    impl VertexProgram for FixedRounds {
        type Value = u64;
        type Msg = u64;

        fn init(&mut self, _v: VertexId, _g: &CsrGraph) -> (u64, bool) {
            (0, true)
        }

        fn compute(
            &self,
            ctx: &mut Ctx<'_, u64>,
            g: &CsrGraph,
            v: VertexId,
            value: &mut u64,
            _msgs: &[u64],
        ) -> bool {
            *value += 1;
            for &t in g.out_neighbors(v) {
                ctx.send(t, *value);
            }
            true
        }

        fn combine(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }

        fn identity(&self) -> u64 {
            0
        }

        fn finished(&mut self, superstep: u64, _max_aggregate: f64) -> bool {
            superstep + 1 >= self.rounds
        }

        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    #[test]
    fn finished_hook_stops_the_loop() {
        let g = csr_from_pairs(&[(0, 1), (1, 0)]);
        let part = EdgeCutPartition::random(2, 1, 1);
        let mut cluster = Cluster::new(ClusterSpec::r3_xlarge(1, 1 << 30), CostProfile::cpp_mpi());
        let out =
            run_bsp(&mut cluster, &g, &part, &mut FixedRounds { rounds: 5 }, &BspConfig::default())
                .unwrap();
        assert_eq!(out.supersteps, 5);
        assert_eq!(out.states, vec![5, 5]);
        assert_eq!(cluster.supersteps(), 5);
    }

    #[test]
    fn combiner_reduces_wire_messages() {
        // Two sources both message vertex 2 every superstep.
        let g = csr_from_pairs(&[(0, 2), (1, 2)]);
        let part = EdgeCutPartition::random(3, 2, 3);
        // Find a seed where 0 and 1 share a machine and 2 does not.
        let combined = {
            let mut cluster =
                Cluster::new(ClusterSpec::r3_xlarge(2, 1 << 30), CostProfile::cpp_mpi());
            run_bsp(&mut cluster, &g, &part, &mut FixedRounds { rounds: 3 }, &BspConfig::default())
                .unwrap();
            cluster.total_messages()
        };
        struct NoCombine(FixedRounds);
        impl VertexProgram for NoCombine {
            type Value = u64;
            type Msg = u64;
            fn init(&mut self, v: VertexId, g: &CsrGraph) -> (u64, bool) {
                self.0.init(v, g)
            }
            fn compute(
                &self,
                ctx: &mut Ctx<'_, u64>,
                g: &CsrGraph,
                v: VertexId,
                value: &mut u64,
                msgs: &[u64],
            ) -> bool {
                self.0.compute(ctx, g, v, value, msgs)
            }
            fn combine(&self, a: u64, b: u64) -> u64 {
                self.0.combine(a, b)
            }
            fn identity(&self) -> u64 {
                self.0.identity()
            }
            fn combinable(&self, _s: u64) -> bool {
                false
            }
            fn finished(&mut self, s: u64, agg: f64) -> bool {
                self.0.finished(s, agg)
            }
            fn wire_bytes(&self) -> u64 {
                8
            }
        }
        let raw = {
            let mut cluster =
                Cluster::new(ClusterSpec::r3_xlarge(2, 1 << 30), CostProfile::cpp_mpi());
            run_bsp(
                &mut cluster,
                &g,
                &part,
                &mut NoCombine(FixedRounds { rounds: 3 }),
                &BspConfig::default(),
            )
            .unwrap();
            cluster.total_messages()
        };
        assert!(raw >= combined, "raw {raw} combined {combined}");
    }

    /// Combinable and order-sensitive: `fold31` (identity `0`) tells the
    /// two-level fold — each source machine's messages in sender order, then
    /// the sources in machine order — from any other order. Every vertex
    /// sends `(v + 1) * 1000 + superstep` along its out-edges each superstep
    /// and hashes what it receives into its value.
    struct FoldOrder {
        rounds: u64,
    }

    fn fold31(a: u64, b: u64) -> u64 {
        a.wrapping_mul(31).wrapping_add(b)
    }

    fn absorb(value: u64, msg: u64) -> u64 {
        value.wrapping_mul(1_000_003).wrapping_add(msg)
    }

    impl VertexProgram for FoldOrder {
        type Value = u64;
        type Msg = u64;

        fn init(&mut self, _v: VertexId, _g: &CsrGraph) -> (u64, bool) {
            (0, true)
        }

        fn compute(
            &self,
            ctx: &mut Ctx<'_, u64>,
            g: &CsrGraph,
            v: VertexId,
            value: &mut u64,
            msgs: &[u64],
        ) -> bool {
            *value = msgs.iter().fold(*value, |acc, &m| absorb(acc, m));
            for &t in g.out_neighbors(v) {
                ctx.send(t, (v as u64 + 1) * 1000 + ctx.superstep);
            }
            true
        }

        fn combine(&self, a: u64, b: u64) -> u64 {
            fold31(a, b)
        }

        fn identity(&self) -> u64 {
            0
        }

        fn finished(&mut self, superstep: u64, _max_aggregate: f64) -> bool {
            superstep + 1 >= self.rounds
        }

        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    /// [`FoldOrder`]'s final states, computed directly. Two-level: per
    /// target, fold each machine's messages in ascending sender id, then the
    /// machines' results in machine order. One-level: fold the raw messages
    /// in that same order straight into one value.
    fn fold_order_oracle(
        g: &CsrGraph,
        part: &EdgeCutPartition,
        rounds: u64,
        two_level: bool,
    ) -> Vec<u64> {
        let n = g.num_vertices();
        let push = |slot: &mut Option<u64>, msg| *slot = Some(slot.map_or(msg, |a| fold31(a, msg)));
        // Senders by machine, ascending id within each (a stable sort).
        let mut senders: Vec<VertexId> = (0..n as VertexId).collect();
        senders.sort_by_key(|&v| part.machine_of(v));
        let mut states = vec![0u64; n];
        for superstep in 0..rounds - 1 {
            // Per target, per machine: the fold of that machine's messages.
            let mut per_machine = vec![vec![None::<u64>; part.machines()]; n];
            let mut raw = vec![None::<u64>; n];
            for &v in &senders {
                for &t in g.out_neighbors(v) {
                    let msg = (v as u64 + 1) * 1000 + superstep;
                    push(&mut per_machine[t as usize][part.machine_of(v) as usize], msg);
                    push(&mut raw[t as usize], msg);
                }
            }
            for t in 0..n {
                let two = per_machine[t].iter().flatten().copied().reduce(fold31);
                if let Some(msg) = if two_level { two } else { raw[t] } {
                    states[t] = absorb(states[t], msg);
                }
            }
        }
        states
    }

    #[test]
    fn combining_folds_each_source_then_the_sources_at_any_chunk_and_thread_count() {
        // Fan-in: every vertex feeds one of five hubs and one scattered
        // target, so each target hears from several senders on each of the
        // three machines, whose ~67-vertex fragments straddle bitmap words.
        let mut pairs: Vec<(u32, u32)> = (0..200).map(|v| (v, v % 5)).collect();
        pairs.extend((0..200).map(|v| (v, (v * 7 + 3) % 200)));
        let g = csr_from_pairs(&pairs);
        let part = EdgeCutPartition::random(200, 3, 5);
        let rounds = 4;
        let want = fold_order_oracle(&g, &part, rounds, true);
        assert_ne!(
            want,
            fold_order_oracle(&g, &part, rounds, false),
            "graph cannot tell folds apart"
        );
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1usize, 4] {
            crate::exec::set_threads(threads);
            for chunk in [1usize, 2, 3, 63, 64, 65, 4096] {
                crate::exec::set_chunk_size(chunk);
                let mut cluster =
                    Cluster::new(ClusterSpec::r3_xlarge(3, 1 << 30), CostProfile::cpp_mpi());
                let out = run_bsp(
                    &mut cluster,
                    &g,
                    &part,
                    &mut FoldOrder { rounds },
                    &BspConfig::default(),
                )
                .unwrap();
                assert_eq!(out.states, want, "threads {threads} chunk {chunk}");
            }
        }
        crate::exec::set_chunk_size(4096);
        crate::exec::set_threads(1);
    }

    /// Sends `v << 32 | superstep` along every out-edge: through the route
    /// table, or through one [`Ctx::send`] per edge.
    struct Flood {
        routed: bool,
    }

    impl VertexProgram for Flood {
        type Value = ();
        type Msg = u64;

        fn init(&mut self, _v: VertexId, _g: &CsrGraph) -> ((), bool) {
            ((), true)
        }

        fn compute(
            &self,
            ctx: &mut Ctx<'_, u64>,
            g: &CsrGraph,
            v: VertexId,
            _value: &mut (),
            _msgs: &[u64],
        ) -> bool {
            let msg = (v as u64) << 32 | ctx.superstep;
            if self.routed {
                ctx.send_to_out_neighbors(msg);
            } else {
                for &t in g.out_neighbors(v) {
                    ctx.send(t, msg);
                }
            }
            true
        }

        fn combine(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }

        fn identity(&self) -> u64 {
            0
        }

        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    #[test]
    fn routed_sends_fill_the_same_buckets_as_per_edge_sends() {
        for_each_seed(24, |seed, rng| {
            let n = 1 + rng.below_u32(400);
            let mut el = graphbench_graph::EdgeList::with_capacity(n as u64, 0);
            for _ in 0..rng.below(4 * n as usize) {
                el.push(rng.below_u32(n), rng.below_u32(n));
            }
            let g = CsrGraph::from_edge_list(&el);
            for machines in [1usize, 3, 16] {
                let li = LocalIndex::build(&EdgeCutPartition::random(n as u64, machines, seed));
                for chunk in [1usize, 97, 4096] {
                    // Every chunk's buckets in (machine, chunk) order, and the
                    // per-machine send counts.
                    let superstep = |routed: bool| {
                        let mut p = Flood { routed };
                        let mut shards = build_shards(&g, &li, &mut p, chunk);
                        let inboxes: Vec<Inbox<u64>> =
                            (0..machines).map(|m| Inbox::new(li.num_locals(m), 0)).collect();
                        let steps = compute_superstep(&mut shards, &inboxes, &li, &g, &p, 3);
                        let sent: Vec<u64> = steps.iter().map(|s| s.raw_messages).collect();
                        let buckets: Vec<Vec<Vec<(u32, u64)>>> =
                            shards.into_iter().flat_map(|s| s.chunks).map(|c| c.out).collect();
                        (buckets, sent)
                    };
                    let routed = superstep(true);
                    assert_eq!(routed, superstep(false), "machines {machines} chunk {chunk}");
                    assert_eq!(routed.1.iter().sum::<u64>(), g.num_edges());
                }
            }
        });
    }

    /// One run, as everything a record keeps: the answer and the runtime
    /// as bits, the outcome's counters, the metrics and the journal.
    #[derive(Debug, PartialEq)]
    struct PathRecord {
        states: Vec<u64>,
        supersteps: u64,
        raw_messages: u64,
        recovered: bool,
        runtime: u64,
        metrics: String,
        journal: String,
    }

    impl PathRecord {
        fn new<V>(
            cluster: Cluster,
            out: &BspOutcome<V>,
            states: Vec<u64>,
            result: graphbench_algos::WorkloadResult,
        ) -> PathRecord {
            let record = crate::util::output_from(cluster, Ok(result), Vec::new());
            PathRecord {
                states,
                supersteps: out.supersteps,
                raw_messages: out.raw_messages,
                recovered: out.recovered_from_failure,
                runtime: record.runtime.to_bits(),
                metrics: format!("{:?}", record.metrics),
                journal: record.journal.to_jsonl(),
            }
        }
    }

    fn cluster_for(part: &EdgeCutPartition, faults: FaultPlan) -> Cluster {
        Cluster::new(
            ClusterSpec { faults, ..ClusterSpec::r3_xlarge(part.machines(), 1 << 30) },
            CostProfile::cpp_mpi(),
        )
    }

    /// `prog` is the stop rule and, for Blogel-B's vertex phase, the seeded
    /// ranks.
    fn pagerank_record(
        g: &CsrGraph,
        part: &EdgeCutPartition,
        prog: &(PageRankConfig, Option<Vec<f64>>),
        faults: FaultPlan,
        cfg: &BspConfig,
        rank_path: bool,
    ) -> PathRecord {
        let mut prog = match &prog.1 {
            Some(init) => PageRankProgram::with_init(prog.0, init.clone()),
            None => PageRankProgram::new(prog.0),
        };
        let mut cluster = cluster_for(part, faults);
        let out = if rank_path {
            run_bsp_pagerank(&mut cluster, g, part, &prog, cfg)
        } else {
            run_bsp(&mut cluster, g, part, &mut prog, cfg)
        };
        let out = out.unwrap();
        let ranks = out.states.iter().map(|r| r.to_bits()).collect();
        let result = graphbench_algos::WorkloadResult::Ranks(out.states.clone());
        PathRecord::new(cluster, &out, ranks, result)
    }

    #[test]
    fn rank_path_equals_the_message_path() {
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plain = BspConfig::default();
        let checkpointed =
            BspConfig { checkpoint_every: Some(3), checkpoint_bytes: 1 << 20, ..plain.clone() };
        // Crashes recovered from a checkpoint rather than from the input:
        // proof that a restore past superstep 0 was exercised.
        let mut from_checkpoint = 0usize;
        for_each_seed(3, |seed, rng| {
            // Self-loops, parallel edges into a hub, sinks, and vertices
            // without in-edges.
            let g = crate::gather::tests::gather_graph(rng);
            let n = g.num_vertices();
            let tolerance = |tol| PageRankConfig {
                stop: StopCriterion::Tolerance(tol),
                ..PageRankConfig::paper_exact()
            };
            let init: Vec<f64> = (0..n).map(|_| rng.f64() * 2.0).collect();
            let progs = [
                (tolerance(1e-3), None),
                (PageRankConfig::fixed(rng.below_u32(8)), None),
                // Blogel-B's vertex phase: seeded ranks.
                (tolerance(1e-2), Some(init)),
            ];
            for machines in [1, 2, 3, 16, 64] {
                let part = EdgeCutPartition::random(n as u64, machines, seed);
                for threads in [1, 4] {
                    crate::exec::set_threads(threads);
                    for chunk in [1, 97, 4096] {
                        crate::exec::set_chunk_size(chunk);
                        for (i, prog) in progs.iter().enumerate() {
                            let record = |faults: &FaultPlan, cfg, rank_path| {
                                pagerank_record(&g, &part, prog, faults.clone(), cfg, rank_path)
                            };
                            let at = format!(
                                "{n} vertices, machines {machines}, threads {threads}, \
                                 chunk {chunk}, program {i}"
                            );
                            let clean = record(&FaultPlan::none(), &plain, false);
                            assert_eq!(record(&FaultPlan::none(), &plain, true), clean, "{at}");
                            // A crash 60 % into the run, restarting from the
                            // input or from the last checkpoint.
                            for cfg in [&plain, &checkpointed] {
                                let runtime = match cfg.checkpoint_every {
                                    None => clean.runtime,
                                    Some(_) => record(&FaultPlan::none(), cfg, false).runtime,
                                };
                                let crash =
                                    FaultPlan::single(f64::from_bits(runtime) * 0.6, machines / 2);
                                let want = record(&crash, cfg, false);
                                let got = record(&crash, cfg, true);
                                let at = format!("{at}, crash, {:?}", cfg.checkpoint_every);
                                assert_eq!(got, want, "{at}");
                                if got.recovered {
                                    assert_eq!(
                                        got.states, clean.states,
                                        "{at}: not the fault-free ranks"
                                    );
                                    from_checkpoint += usize::from(
                                        cfg.checkpoint_every.is_some() && clean.supersteps > 3,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        });
        crate::exec::set_chunk_size(4096);
        crate::exec::set_threads(1);
        assert!(from_checkpoint > 0, "no crash was recovered from a checkpoint");
    }

    /// Chains with random edge directions, cut into several components,
    /// with parallel edges, self-loops and isolated vertices: HashMin needs
    /// a superstep per hop to carry a label along a chain either way.
    fn chain_graph(rng: &mut graphbench_graph::rng::Rng) -> CsrGraph {
        let n = 2 + rng.below_u32(300);
        let mut el = graphbench_graph::EdgeList::with_capacity(n as u64, 0);
        for v in 1..n {
            let u = v - 1 - rng.below_u32(v.min(3));
            let (s, t) = if rng.below(2) == 0 { (u, v) } else { (v, u) };
            match rng.below(8) {
                0 => {} // a cut
                1 => {
                    el.push(s, t);
                    el.push(s, t);
                }
                2 => {
                    el.push(s, t);
                    el.push(v, v);
                }
                _ => el.push(s, t),
            }
        }
        CsrGraph::from_edge_list(&el)
    }

    /// Every street of a `w` × `h` grid, in both directions: each pair of
    /// edges one street.
    fn grid_streets(w: u32, h: u32) -> Vec<(VertexId, VertexId)> {
        let mut streets = Vec::new();
        for v in 0..w * h {
            if v % w + 1 < w {
                streets.extend([(v, v + 1), (v + 1, v)]);
            }
            if v + w < w * h {
                streets.extend([(v, v + w), (v + w, v)]);
            }
        }
        streets
    }

    /// A road network in miniature, where most of a position's in-edges
    /// repeat its out-edges: a small grid with both directions per street,
    /// each direction dropped at random (one-way streets and cuts), one
    /// street doubled both ways, self-loops, and an isolated vertex last.
    pub(crate) fn street_graph(rng: &mut Rng) -> CsrGraph {
        let (w, h) = (2 + rng.below_u32(9), 2 + rng.below_u32(9));
        let streets = grid_streets(w, h);
        let doubled = rng.below(streets.len() / 2);
        let mut el = graphbench_graph::EdgeList::with_capacity(u64::from(w * h) + 1, 0);
        for (i, &(s, t)) in streets.iter().enumerate() {
            let copies = if i / 2 == doubled { 2 } else { usize::from(rng.below(8) != 0) };
            for _ in 0..copies {
                el.push(s, t);
            }
        }
        for v in 0..w * h {
            if rng.below(10) == 0 {
                el.push(v, v);
            }
        }
        CsrGraph::from_edge_list(&el)
    }

    /// Each position routes to each of its targets once: its out-neighbours
    /// and, for WCC, its in-neighbours other than itself. `raw` counts every
    /// out-edge and, for WCC, every in-edge that is not a self-loop; on a
    /// symmetric simple graph WCC's table is half of that.
    #[test]
    fn routes_hold_each_target_once_and_count_every_route() {
        for_each_seed(8, |seed, rng| {
            let (w, h) = (2 + rng.below_u32(9), 2 + rng.below_u32(9));
            let symmetric = csr_from_pairs(&grid_streets(w, h));
            let graphs = [
                crate::gather::tests::gather_graph(rng),
                chain_graph(rng),
                street_graph(rng),
                symmetric,
            ];
            for (gi, g) in graphs.iter().enumerate() {
                let (in_off, in_src) = g.transpose();
                for machines in [1, 3, 16] {
                    let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
                    for with_in in [false, true] {
                        let pos = Positions::new(g, &part);
                        let (r, pos_of) = (Routes::new(g, &pos, with_in), pos.pos_of());
                        for (p, &v) in pos.verts.iter().enumerate() {
                            let at = format!("graph {gi}, machines {machines}, in {with_in}, {v}");
                            assert_eq!(pos_of[v as usize] as usize, p, "{at}");
                            let outs = g.out_neighbors(v);
                            let (lo, hi) = (in_off[v as usize], in_off[v as usize + 1]);
                            let ins: Vec<_> = in_src[lo as usize..hi as usize]
                                .iter()
                                .filter(|&&u| with_in && u != v)
                                .collect();
                            let mut want: Vec<u32> = outs
                                .iter()
                                .chain(ins.iter().copied())
                                .map(|&u| pos_of[u as usize])
                                .collect();
                            want.sort_unstable();
                            want.dedup();
                            let mut got = r.of(p).to_vec();
                            got.sort_unstable();
                            got.dedup();
                            assert_eq!(got.len(), r.of(p).len(), "{at}: a target twice");
                            assert_eq!(got, want, "{at}");
                            assert_eq!(r.raw[p] as usize, outs.len() + ins.len(), "{at}");
                        }
                        if gi == 3 && with_in {
                            let raw: u64 = r.raw.iter().map(|&c| u64::from(c)).sum();
                            assert_eq!(2 * r.to.len() as u64, raw, "machines {machines}");
                        }
                    }
                }
            }
        });
    }

    /// One label-path workload on the label path or, as the oracle, on the
    /// message path. WCC stores discovered in-edges at 8 bytes.
    fn label_record(
        g: &CsrGraph,
        part: &EdgeCutPartition,
        workload: Workload,
        faults: FaultPlan,
        cfg: &BspConfig,
        label_path: bool,
    ) -> PathRecord {
        let mut cluster = cluster_for(part, faults);
        let c = &mut cluster;
        let out = if label_path {
            run_bsp_labels(c, g, part, workload, 8, cfg).unwrap()
        } else {
            match workload {
                Workload::Wcc => {
                    let out = run_bsp(c, g, part, &mut WccProgram::new(8), cfg).unwrap();
                    BspOutcome {
                        states: wcc_labels(out.states),
                        supersteps: out.supersteps,
                        raw_messages: out.raw_messages,
                        recovered_from_failure: out.recovered_from_failure,
                    }
                }
                Workload::Sssp { source } => {
                    run_bsp(c, g, part, &mut SsspProgram::new(source), cfg).unwrap()
                }
                Workload::KHop { source, k } => {
                    run_bsp(c, g, part, &mut KHopProgram::new(source, k), cfg).unwrap()
                }
                Workload::PageRank(_) => unreachable!("PageRank takes the rank path"),
            }
        };
        let states = out.states.iter().map(|&l| u64::from(l)).collect();
        let result = match workload {
            Workload::Wcc => WorkloadResult::Labels(out.states.clone()),
            _ => WorkloadResult::Distances(out.states.clone()),
        };
        PathRecord::new(cluster, &out, states, result)
    }

    /// The label path's workloads on `g`: WCC; SSSP from a random vertex,
    /// an isolated one and one with a self-loop (where `g` has them); K-hop
    /// from the random vertex at bounds 0 to 3. Returns them with the
    /// reference answers, and whether an isolated and a self-loop source
    /// were among them.
    fn label_workloads(g: &CsrGraph, rng: &mut Rng) -> (Vec<(Workload, Vec<u64>)>, bool, bool) {
        let n = g.num_vertices() as VertexId;
        let random = rng.below_u32(n);
        let (in_off, _) = g.transpose();
        let isolated =
            (0..n).find(|&v| g.out_degree(v) == 0 && in_off[v as usize] == in_off[v as usize + 1]);
        let looped = (0..n).find(|&v| g.out_neighbors(v).contains(&v));
        let widen = |d: Vec<u32>| d.into_iter().map(u64::from).collect();
        let mut workloads = vec![(Workload::Wcc, widen(reference::wcc(g)))];
        for source in [Some(random), isolated, looped].into_iter().flatten() {
            workloads.push((Workload::Sssp { source }, widen(reference::sssp(g, source))));
        }
        for k in 0..4 {
            let khop = Workload::KHop { source: random, k };
            workloads.push((khop, widen(reference::khop(g, random, k))));
        }
        (workloads, isolated.is_some(), looped.is_some())
    }

    #[test]
    fn label_path_equals_the_message_path() {
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plain = BspConfig::default();
        let checkpointed =
            BspConfig { checkpoint_every: Some(3), checkpoint_bytes: 1 << 20, ..plain.clone() };
        // Crashes recovered from a checkpoint rather than from the input
        // (proof that a restore past superstep 0 was exercised), and graphs
        // with an isolated and a self-loop SSSP source.
        let (mut from_checkpoint, mut isolated, mut looped) = (0usize, 0usize, 0usize);
        for_each_seed(3, |seed, rng| {
            let graphs =
                [crate::gather::tests::gather_graph(rng), chain_graph(rng), street_graph(rng)];
            for (gi, g) in graphs.iter().enumerate() {
                let n = g.num_vertices();
                let (workloads, has_isolated, has_looped) = label_workloads(g, rng);
                isolated += usize::from(has_isolated);
                looped += usize::from(has_looped);
                for machines in [1, 2, 3, 16, 64] {
                    let part = EdgeCutPartition::random(n as u64, machines, seed);
                    for threads in [1, 4] {
                        crate::exec::set_threads(threads);
                        for chunk in [1, 97, 4096] {
                            crate::exec::set_chunk_size(chunk);
                            for (workload, want) in &workloads {
                                let record = |faults: &FaultPlan, cfg, label_path| {
                                    let w = *workload;
                                    label_record(g, &part, w, faults.clone(), cfg, label_path)
                                };
                                let at = format!(
                                    "graph {gi}, {n} vertices, machines {machines}, \
                                     threads {threads}, chunk {chunk}, {workload:?}"
                                );
                                let clean = record(&FaultPlan::none(), &plain, false);
                                assert_eq!(&clean.states, want, "{at}: not the reference");
                                assert_eq!(record(&FaultPlan::none(), &plain, true), clean, "{at}");
                                // A crash 60 % into the run, restarting from
                                // the input or from the last checkpoint.
                                for cfg in [&plain, &checkpointed] {
                                    let runtime = match cfg.checkpoint_every {
                                        None => clean.runtime,
                                        Some(_) => record(&FaultPlan::none(), cfg, false).runtime,
                                    };
                                    let when = f64::from_bits(runtime) * 0.6;
                                    let crash = FaultPlan::single(when, machines / 2);
                                    let want = record(&crash, cfg, false);
                                    let got = record(&crash, cfg, true);
                                    let at = format!("{at}, crash, {:?}", cfg.checkpoint_every);
                                    assert_eq!(got, want, "{at}");
                                    if got.recovered {
                                        assert_eq!(
                                            got.states, clean.states,
                                            "{at}: not the fault-free states"
                                        );
                                        from_checkpoint += usize::from(
                                            cfg.checkpoint_every.is_some() && clean.supersteps > 3,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        });
        crate::exec::set_chunk_size(4096);
        crate::exec::set_threads(1);
        assert!(from_checkpoint > 0, "no crash was recovered from a checkpoint");
        assert!(isolated > 0 && looped > 0, "isolated {isolated}, self-loop {looped} sources");
    }

    /// `combine(identity(), m) == m` for every test program, over seeded
    /// samples plus `0` and `MAX - 1`.
    #[test]
    fn test_programs_fold_from_an_identity() {
        for_each_seed(64, |_, rng| {
            let r = rng.next_u64();
            for m in [0, u64::MAX - 1, r] {
                assert_eq!(
                    FoldOrder { rounds: 1 }.combine(FoldOrder { rounds: 1 }.identity(), m),
                    m
                );
                let fixed = FixedRounds { rounds: 1 };
                assert_eq!(fixed.combine(fixed.identity(), m), m);
                let trace = TraceInbox { rounds: 1 };
                assert_eq!(trace.combine(trace.identity(), m), m);
            }
            for m in [0, u32::MAX - 1, r as u32] {
                assert_eq!(MaxProp.combine(MaxProp.identity(), m), m);
            }
        });
    }

    fn arb_graph(rng: &mut Rng) -> CsrGraph {
        let pairs: Vec<_> =
            (0..1 + rng.below(119)).map(|_| (rng.below_u32(25), rng.below_u32(25))).collect();
        csr_from_pairs(&pairs)
    }

    fn cluster(machines: usize) -> Cluster {
        Cluster::new(ClusterSpec::r3_xlarge(machines, 1 << 30), CostProfile::cpp_mpi())
    }

    /// `workload` through [`run_workload`] on a fresh cluster, WCC storing
    /// discovered in-edges at 8 bytes.
    fn run_arb(
        g: &CsrGraph,
        machines: usize,
        seed: u64,
        workload: Workload,
    ) -> (WorkloadResult, Cluster) {
        let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
        let mut cl = cluster(machines);
        let out = run_workload(&mut cl, g, &part, workload, 8, &BspConfig::default()).unwrap();
        (out, cl)
    }

    #[test]
    fn bsp_wcc_matches_reference() {
        for_each_seed(64, |_, rng| {
            let g = arb_graph(rng);
            let machines = 1 + rng.below(8);
            let seed = rng.below(50) as u64;
            let (out, cl) = run_arb(&g, machines, seed, Workload::Wcc);
            assert_eq!(out, WorkloadResult::Labels(reference::wcc(&g)));
            // Transient message memory is returned; only the permanently
            // materialized reverse edges (8 B each) may remain resident.
            let residual: u64 = (0..machines).map(|m| cl.mem_in_use(m)).sum();
            assert!(residual <= g.num_edges() * 8, "residual {} bytes", residual);
        });
    }

    #[test]
    fn bsp_sssp_matches_reference() {
        for_each_seed(64, |_, rng| {
            let g = arb_graph(rng);
            let machines = 1 + rng.below(8);
            let seed = rng.below(50) as u64;
            let src_raw = rng.below_u32(25);
            let src = src_raw % g.num_vertices() as u32;
            let (out, cl) = run_arb(&g, machines, seed, Workload::Sssp { source: src });
            assert_eq!(out, WorkloadResult::Distances(reference::sssp(&g, src)));
            // SSSP allocates nothing permanent: all buffers must be returned.
            for m in 0..machines {
                assert_eq!(cl.mem_in_use(m), 0, "machine {} leaked", m);
            }
        });
    }

    #[test]
    fn bsp_khop_matches_reference() {
        for_each_seed(64, |_, rng| {
            let g = arb_graph(rng);
            let machines = 1 + rng.below(8);
            let seed = rng.below(50) as u64;
            let src_raw = rng.below_u32(25);
            let k = rng.below_u32(5);
            let src = src_raw % g.num_vertices() as u32;
            let (out, cl) = run_arb(&g, machines, seed, Workload::KHop { source: src, k });
            assert_eq!(out, WorkloadResult::Distances(reference::khop(&g, src, k)));
            // K-hop never runs more than k + 2 supersteps.
            assert!(cl.supersteps() <= k as u64 + 2);
        });
    }

    #[test]
    fn bsp_pagerank_matches_reference() {
        for_each_seed(64, |_, rng| {
            let g = arb_graph(rng);
            let machines = 1 + rng.below(8);
            let seed = rng.below(50) as u64;
            let cfg = PageRankConfig::fixed(8);
            let (out, _) = run_arb(&g, machines, seed, Workload::PageRank(cfg));
            let WorkloadResult::Ranks(ranks) = out else { panic!("not ranks: {out:?}") };
            let (want, _) = reference::pagerank(&g, &cfg);
            for (a, b) in ranks.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
            }
        });
    }

    #[test]
    fn machine_count_never_changes_results() {
        for_each_seed(64, |_, rng| {
            let g = arb_graph(rng);
            let seed = rng.below(20) as u64;
            let (single, _) = run_arb(&g, 1, seed, Workload::Wcc);
            for machines in [2usize, 5, 8] {
                let (out, _) = run_arb(&g, machines, seed, Workload::Wcc);
                assert_eq!(&out, &single, "machines {}", machines);
            }
        });
    }

    /// The parallel side of a thread-count comparison: `GRAPHBENCH_THREADS`
    /// where it is set above 1 (CI runs 2, 4 and 8), else 4.
    fn parallel_threads() -> usize {
        let set = std::env::var("GRAPHBENCH_THREADS").ok().and_then(|raw| raw.parse().ok());
        set.filter(|&t| t > 1).unwrap_or(4)
    }

    #[test]
    fn parallel_bsp_matches_serial_on_random_graphs() {
        for_each_seed(48, |_, rng| {
            let g = arb_graph(rng);
            let machines = 1 + rng.below(8);
            let seed = rng.below(50) as u64;
            let src_raw = rng.below_u32(25);
            let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let src = src_raw % g.num_vertices() as u32;
            let (wcc, sssp) = (Workload::Wcc, Workload::Sssp { source: src });
            crate::exec::set_threads(1);
            let (wcc_serial, _) = run_arb(&g, machines, seed, wcc);
            let (sssp_serial, _) = run_arb(&g, machines, seed, sssp);
            crate::exec::set_threads(parallel_threads());
            let (wcc_parallel, _) = run_arb(&g, machines, seed, wcc);
            let (sssp_parallel, _) = run_arb(&g, machines, seed, sssp);
            crate::exec::set_threads(1);
            assert_eq!(&wcc_serial, &wcc_parallel);
            assert_eq!(&sssp_serial, &sssp_parallel);
            // And both agree with the single-threaded reference algorithms.
            assert_eq!(wcc_serial, WorkloadResult::Labels(reference::wcc(&g)));
            assert_eq!(sssp_serial, WorkloadResult::Distances(reference::sssp(&g, src)));
        });
    }
}
