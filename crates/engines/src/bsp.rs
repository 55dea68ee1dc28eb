//! Generic vertex-centric BSP runtime ("think like a vertex", §2.1).
//!
//! Giraph and Blogel-V both expose a `compute(vertex, messages)` API over
//! hash-partitioned vertices; they differ in cost constants (JVM vs C++) and
//! framework overheads, not in execution structure. This runtime executes a
//! [`VertexProgram`] superstep by superstep, exactly as Pregel would:
//!
//! * messages sent in superstep `s` are delivered in `s + 1`;
//! * a vertex halts by returning `false` and is woken by incoming messages;
//! * message *combiners* merge messages per `(destination machine, target)`
//!   pair at the sender, when the program allows it for that superstep
//!   (WCC's in-neighbour discovery superstep must not combine, §5.8);
//! * every vertex execution, message, and buffer allocation is charged to
//!   the simulated cluster, so supersteps cost what their slowest machine
//!   costs and message floods can OOM a machine.
//!
//! Execution is deterministic *and* parallel: each simulated machine is a
//! [`Shard`], and every shard's vertex range is further split into
//! fixed-size sub-chunks that host threads claim dynamically (see
//! [`crate::exec`]), so even a run dominated by one fragment scales past
//! one host thread. Every sub-chunk produces an independent result — ops,
//! outboxes, allocations, message counts — and the coordinator merges them
//! in (machine, chunk) order, so neither the host thread count nor the
//! chunk size can change any simulated metric. Parallelism in the *cost
//! model* (per-machine op vectors) is what the study measures; host-thread
//! parallelism only changes how fast the study runs.
//!
//! The message path is the zero-sort radix shuffle of [`crate::shuffle`],
//! and each message is looked up once and copied once: [`Ctx::send`]
//! resolves the target's `(machine, fragment-local id)` with one
//! [`graphbench_partition::LocalIndex`] read and files `(local id, payload)`
//! in the sending chunk's bucket for that machine; sender-side combining
//! folds a destination's chunk buckets straight into the shard outbox; and
//! delivery indexes the inbox tables by the carried local id.
//!
//! Which vertices a superstep runs is a *frontier* with no threshold to
//! tune: every chunk counts its own `active` flags, and a chunk whose count
//! is zero — every SSSP, K-hop and WCC superstep after the first two — can
//! only run vertices that have messages, so it walks the set bits of the
//! inbox's has-messages bitmap instead of testing each vertex. A chunk with
//! self-active vertices (PageRank) keeps the dense loop. Either way
//! vertices run in ascending local id, so the choice is unobservable. The
//! same counts answer "is anything still active" at the end of a superstep.

use crate::exec;
use crate::recovery::{Recovery, RecoveryModel};
use crate::shuffle::{Combiner, Inbox};
use graphbench_graph::{CsrGraph, VertexId};
use graphbench_partition::{EdgeCutPartition, LocalIndex};
use graphbench_sim::{Cluster, SimError};

/// Per-superstep context handed to [`VertexProgram::compute`]. One context
/// serves every vertex of a sub-chunk; its tallies accumulate across them.
pub struct Ctx<'a, M> {
    /// Current superstep (0-based).
    pub superstep: u64,
    li: &'a LocalIndex,
    /// The executing chunk's outbox buckets, one per destination machine.
    out: &'a mut [Vec<(u32, M)>],
    sent: u64,
    extra_bytes: u64,
    agg_max: f64,
}

impl<M> Ctx<'_, M> {
    /// Send a message, delivered at the start of the next superstep. The
    /// target is resolved to `(machine, local id)` here, once; the local id
    /// travels with the message from then on.
    pub fn send(&mut self, to: VertexId, msg: M) {
        let (machine, local) = self.li.machine_local_of(to);
        self.out[machine as usize].push((local, msg));
        self.sent += 1;
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

/// Runtime knobs that differ between systems.
#[derive(Debug, Clone)]
pub struct BspConfig {
    /// Cores used for compute on each machine.
    pub cores_for_compute: u32,
    /// Record a memory-trace sample every this many supersteps.
    pub trace_every: u64,
    /// Hard cap on supersteps (runaway guard).
    pub max_supersteps: u64,
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
            trace_every: 1,
            max_supersteps: 200_000,
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

/// One simulated machine's slice of the computation. Allocated once before
/// the superstep loop and reused: outboxes and chunk buckets are cleared,
/// not rebuilt, each superstep.
struct Shard<V, M> {
    /// Fragment vertex list, ascending by global id; position = local id.
    verts: Vec<VertexId>,
    /// Parallel to `verts`.
    states: Vec<V>,
    /// Parallel to `verts`.
    active: Vec<bool>,
    /// Outboxes, one per destination machine: `(local id there, payload)`
    /// in arrival order (first-touch order once combined).
    out: Vec<Vec<(u32, M)>>,
    /// Vertices per sub-chunk ([`exec::chunk_size`] when the run began).
    chunk: usize,
    /// One entry per `chunk`-sized span of `verts` (see
    /// [`compute_superstep`]).
    chunks: Vec<ChunkScratch<M>>,
    /// Sender-side combining scratch, shared by all of this shard's outbox
    /// buckets via epoch tags.
    comb: Combiner<M>,
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
struct ChunkScratch<M> {
    out: Vec<Vec<(u32, M)>>,
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
    states: &'a mut [V],
    active: &'a mut [bool],
    scratch: &'a mut ChunkScratch<M>,
}

/// What a sub-chunk — and, summed, a shard — reports from a superstep.
/// Counters stay integral until `run_bsp` charges them, so chunk boundaries
/// cannot perturb any f64 a golden record sees.
#[derive(Clone, Copy, Default)]
struct StepReport {
    ops: u64,
    raw_messages: u64,
    extra_alloc: u64,
    any_ran: bool,
    agg_max: f64,
}

/// Snapshot backing checkpoint-replay recovery: per-shard vertex state plus
/// the delivered inboxes at a superstep boundary. Captured at execution
/// start (restart-from-input) and refreshed at every global checkpoint —
/// and only when the fault plan actually schedules a crash.
struct BspCheckpoint<V, M> {
    /// First superstep to re-execute after restoring.
    superstep: u64,
    states: Vec<Vec<V>>,
    active: Vec<Vec<bool>>,
    inboxes: Vec<Inbox<M>>,
}

impl<V: Clone, M: Copy> BspCheckpoint<V, M> {
    fn capture(superstep: u64, shards: &[Shard<V, M>], inboxes: &[Inbox<M>]) -> Self {
        BspCheckpoint {
            superstep,
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

/// One superstep's compute, in two stages. Shared by the live loop and
/// recovery replay (which discards the reports).
///
/// **Stage 1** runs every shard's sub-chunks as one flat,
/// dynamically-claimed task list ([`exec::run_chunks`]): a fragment that
/// dominates the superstep — a power-law hub's machine — does not serialize
/// it on one host thread. Each task owns disjoint `&mut` slices of its
/// shard's state arrays and its chunk's buckets, reads the shard's inbox
/// (read-only), and reports *integer* counters. A chunk with no self-active
/// vertex runs only the vertices the inbox bitmap names; otherwise it tests
/// every vertex. Both visit ascending local ids.
///
/// **Stage 2** assembles, per machine and destination, the shard outbox
/// from the chunk buckets in ascending chunk order — exactly the vertex
/// order an unsplit loop would send in: folded through the combiner when
/// the superstep combines, concatenated when it does not. Report merges are
/// u64 sums and `max` folds in chunk order, so every simulated metric is
/// bit-identical at any chunk size and thread count.
fn compute_superstep<P: VertexProgram>(
    shards: &mut [Shard<P::Value, P::Msg>],
    inboxes: &[Inbox<P::Msg>],
    li: &LocalIndex,
    g: &CsrGraph,
    p: &P,
    superstep: u64,
    combinable_now: bool,
) -> Vec<StepReport> {
    // Carve every shard into sub-chunk tasks holding disjoint state slices.
    let mut tasks: Vec<ChunkTask<'_, P::Value, P::Msg>> =
        Vec::with_capacity(shards.iter().map(|s| s.chunks.len()).sum());
    for (machine, shard) in shards.iter_mut().enumerate() {
        let Shard { verts, states, active, chunk, chunks, .. } = shard;
        let slices =
            verts.chunks(*chunk).zip(states.chunks_mut(*chunk)).zip(active.chunks_mut(*chunk));
        for (ci, (((verts, states), active), scratch)) in slices.zip(chunks).enumerate() {
            let base = (ci * *chunk) as u32;
            tasks.push(ChunkTask { machine, base, verts, states, active, scratch });
        }
    }

    // Stage 1: compute each sub-chunk independently.
    let steps: Vec<(usize, StepReport)> = exec::run_chunks(&mut tasks, |_, task| {
        let inbox = &inboxes[task.machine];
        let ChunkScratch { out, active: active_count } = &mut *task.scratch;
        for buf in out.iter_mut() {
            buf.clear();
        }
        let sparse = *active_count == 0;
        let mut ctx = Ctx { superstep, li, out, sent: 0, extra_bytes: 0, agg_max: 0.0 };
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

    // Stage 2: per-machine outbox assembly with sender-side combining. Each
    // target's messages fold in arrival order, so combined values (f64
    // included) do not depend on chunk boundaries.
    exec::run_chunks(shards, |_, shard| {
        let Shard { out, chunks, comb, .. } = shard;
        for (dst, buf) in out.iter_mut().enumerate() {
            let buckets = chunks.iter().map(|c| c.out[dst].as_slice());
            if combinable_now {
                comb.combine_sources(li.num_locals(dst), buckets, buf, |a, b| p.combine(a, b));
            } else {
                buf.clear();
                buckets.for_each(|b| buf.extend_from_slice(b));
            }
        }
    });
    merged
}

/// One superstep's delivery: each destination takes its senders' outboxes
/// in source order and groups them per vertex. Returns per-machine inbox
/// bytes. Shared by the live loop and recovery replay.
fn deliver_superstep<P: VertexProgram>(
    inboxes: &mut [Inbox<P::Msg>],
    shards: &[Shard<P::Value, P::Msg>],
    p: &P,
    combinable_now: bool,
    msg_mem: u64,
) -> Vec<u64> {
    exec::run_chunks(inboxes, |dst, inbox| {
        let outboxes = shards.iter().map(|s| s.out[dst].as_slice());
        inbox.deliver(outboxes, combinable_now, |a, b| p.combine(a, b));
        inbox.len() as u64 * msg_mem
    })
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
    let n = g.num_vertices();
    let machines = cluster.machines();
    assert_eq!(part.machines(), machines, "partition and cluster disagree");
    let msg_mem = cluster.profile().bytes_per_message;
    let wire = prog.wire_bytes() + 4;
    // Global↔local vertex id tables, built once: one lookup per send in
    // the hot loop, and the dense address space the radix shuffle files
    // messages under.
    let li = LocalIndex::build(part);
    let chunk = exec::chunk_size();

    let mut init_states: Vec<Option<P::Value>> = Vec::with_capacity(n);
    let mut init_active: Vec<bool> = Vec::with_capacity(n);
    for v in 0..n as VertexId {
        let (s, a) = prog.init(v, g);
        init_states.push(Some(s));
        init_active.push(a);
    }
    let mut shards: Vec<Shard<P::Value, P::Msg>> = (0..machines)
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
            let buckets = || (0..machines).map(|_| Vec::new()).collect();
            let chunks = (0..verts.len().div_ceil(chunk))
                .map(|_| ChunkScratch { out: buckets(), active: 0 })
                .collect();
            let comb = Combiner::with_capacity(li.max_locals());
            let mut shard = Shard { verts, states, active, out: buckets(), chunk, chunks, comb };
            shard.recount_active();
            shard
        })
        .collect();
    drop(init_states);

    // Per-machine inboxes (grouped per vertex by the shuffle), kept outside
    // the shards so delivery can read every shard's outboxes while writing
    // one inbox.
    let mut inboxes: Vec<Inbox<P::Msg>> =
        (0..machines).map(|m| Inbox::new(li.num_locals(m))).collect();
    let mut inbox_bytes = vec![0u64; machines];
    // Per-superstep counter vectors, allocated once and overwritten.
    let mut ops = vec![0.0f64; machines];
    let mut extra_alloc = vec![0u64; machines];
    let mut sent = vec![0u64; machines];
    let mut recv = vec![0u64; machines];
    let mut msg_counts = vec![0u64; machines];
    let mut send_buffer_bytes = vec![0u64; machines];

    let mut supersteps = 0u64;
    let mut raw_messages = 0u64;
    // Fault-tolerance bookkeeping: Table 1's checkpoint-replay mechanism.
    // The recovery point is the last global checkpoint (or the start of
    // execution without checkpointing); the snapshot holds the matching
    // program state so recovery can *recompute* rather than merely bill.
    let mut recovery = Recovery::new(cluster, RecoveryModel::CheckpointReplay)
        .with_checkpoint_bytes(cfg.checkpoint_bytes);
    let mut snapshot: Option<BspCheckpoint<P::Value, P::Msg>> =
        cluster.plan_has_crashes().then(|| BspCheckpoint::capture(0, &shards, &inboxes));

    loop {
        if supersteps >= cfg.max_supersteps {
            return Err(SimError::Timeout);
        }
        let combinable_now = prog.combinable(supersteps);
        let p: &P = prog;

        // Compute phase: every shard advances independently on the host
        // thread pool; its inbox is read-only, its outboxes are its own.
        // Label before the host work so its wallclock spans carry it.
        cluster.set_label("superstep");
        let steps = compute_superstep(&mut shards, &inboxes, &li, g, p, supersteps, combinable_now);

        // Merge shard reports in machine-index order.
        let mut any_ran = false;
        let mut agg = 0.0f64;
        for (m, s) in steps.iter().enumerate() {
            ops[m] = s.ops as f64;
            extra_alloc[m] = s.extra_alloc;
            any_ran |= s.any_ran;
            raw_messages += s.raw_messages;
            agg = agg.max(s.agg_max);
        }

        // Free last superstep's consumed inbox buffers.
        cluster.free_all(&inbox_bytes);

        // Wire accounting: outbox sizes are post-combine message counts.
        // Traffic between fragments an elastic resize packed onto the same
        // physical machine never crosses the wire (with the identity map
        // this is exactly the old `src != dst` self-loop exclusion).
        send_buffer_bytes.fill(0);
        sent.fill(0);
        recv.fill(0);
        msg_counts.fill(0);
        for (src, shard) in shards.iter().enumerate() {
            for (dst, buf) in shard.out.iter().enumerate() {
                let count = buf.len() as u64;
                if count == 0 {
                    continue;
                }
                send_buffer_bytes[src] += count * msg_mem;
                if !cluster.frags_colocated(src, dst) {
                    sent[src] += count * wire;
                    recv[dst] += count * wire;
                    msg_counts[src] += count;
                }
            }
        }

        // Delivery phase: each destination takes its senders' outboxes in
        // source order and groups them per vertex — receiver-side combining
        // keeps one entry per distinct target (without a combiner every
        // message is buffered — the WCC discovery superstep's memory spike,
        // §5.8): messages are counted into per-local-id groups behind an
        // offset table.
        let delivered: Vec<u64> =
            deliver_superstep(&mut inboxes, &shards, p, combinable_now, msg_mem);
        inbox_bytes.copy_from_slice(&delivered);

        // Charge this superstep: sender buffers are flushed to the wire
        // whenever they fill (Giraph's message cache), so their resident
        // footprint is bounded; receiver buffers live until consumed next
        // superstep.
        let flush_cap = (cluster.spec().memory_per_machine as f64 * 0.03) as u64;
        for b in &mut send_buffer_bytes {
            *b = (*b).min(flush_cap);
        }
        cluster.alloc_all(&send_buffer_bytes)?;
        cluster.alloc_all(&inbox_bytes)?;
        cluster.advance_compute(&ops, cfg.cores_for_compute)?;
        cluster.alloc_all(&extra_alloc)?; // permanent program allocations
        cluster.set_label("shuffle");
        cluster.exchange(&sent, &recv, &msg_counts)?;
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
        cluster.report_active(shards.iter().map(|s| s.active_vertices() as u64).sum());
        cluster.set_label("barrier");
        cluster.barrier()?;
        if cfg.trace_every > 0 && supersteps.is_multiple_of(cfg.trace_every) {
            cluster.sample_trace();
        }

        supersteps += 1;
        // Global checkpoint: all machines persist state to HDFS and the
        // recovery point (and its state snapshot) moves forward.
        if let Some(k) = cfg.checkpoint_every {
            if k > 0 && supersteps.is_multiple_of(k) && cfg.checkpoint_bytes > 0 {
                cluster.set_label("checkpoint");
                cluster.hdfs_write(&crate::even_share(cfg.checkpoint_bytes, machines))?;
                recovery.mark_checkpoint(cluster);
                if let Some(s) = snapshot.as_mut() {
                    *s = BspCheckpoint::capture(supersteps, &shards, &inboxes);
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
        let barrier_events = recovery.at_barrier(cluster)?;
        if barrier_events.crashed {
            if let Some(ckpt) = &snapshot {
                ckpt.restore(&mut shards, &mut inboxes);
                for r in ckpt.superstep..supersteps {
                    let c = p.combinable(r);
                    compute_superstep(&mut shards, &inboxes, &li, g, p, r, c);
                    deliver_superstep(&mut inboxes, &shards, p, c, msg_mem);
                }
            }
        }
        // An applied resize is a consistent cut — the migrated state *is*
        // the current superstep's state, so the crash snapshot moves up to
        // it: a later crash replays from the new membership, never across
        // the migration (the recovery point advanced in lockstep).
        if barrier_events.resized {
            if let Some(s) = snapshot.as_mut() {
                *s = BspCheckpoint::capture(supersteps, &shards, &inboxes);
            }
        }
        let no_more_work =
            inboxes.iter().all(|i| i.is_empty()) && shards.iter().all(|s| s.active_vertices() == 0);
        let program_done = prog.finished(supersteps - 1, agg);
        if program_done || no_more_work || !any_ran {
            // Free any undelivered inbox buffers before returning.
            cluster.set_label("superstep");
            cluster.free_all(&inbox_bytes);
            break;
        }
    }

    // Reassemble global vertex order from the per-machine shards.
    let mut final_states: Vec<Option<P::Value>> = (0..n).map(|_| None).collect();
    for shard in shards.iter_mut() {
        let states = std::mem::take(&mut shard.states);
        for (&v, s) in shard.verts.iter().zip(states) {
            final_states[v as usize] = Some(s);
        }
    }
    let states =
        final_states.into_iter().map(|s| s.expect("partition covers all vertices")).collect();

    Ok(BspOutcome {
        states,
        supersteps,
        raw_messages,
        recovered_from_failure: recovery.crashes_recovered() > 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_graph::builder::csr_from_pairs;
    use graphbench_sim::{ClusterSpec, CostProfile};

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
        plan: graphbench_sim::FaultPlan,
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
        let (clean, c_clean) = run_maxprop_with_faults(graphbench_sim::FaultPlan::none(), &cfg);
        let (faulted, c_faulted) =
            run_maxprop_with_faults(graphbench_sim::FaultPlan::single(0.01, 1), &cfg);
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
    fn run_path_sssp(
        plan: graphbench_sim::FaultPlan,
        cfg: &BspConfig,
    ) -> (BspOutcome<u32>, Cluster) {
        let mut pairs: Vec<(u32, u32)> = (0..399).map(|i| (i, i + 1)).collect();
        pairs.push((5, 300));
        let g = csr_from_pairs(&pairs);
        let part = EdgeCutPartition::random(400, 3, 7);
        let mut cluster = Cluster::new(
            ClusterSpec { faults: plan, ..ClusterSpec::r3_xlarge(3, 1 << 30) },
            CostProfile::cpp_mpi(),
        );
        let mut prog = crate::programs::SsspProgram::new(0);
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
                let (out, cluster) =
                    run_path_sssp(graphbench_sim::FaultPlan::none(), &BspConfig::default());
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
            let (clean, c_clean) = run_path_sssp(graphbench_sim::FaultPlan::none(), &cfg);
            let crash = graphbench_sim::FaultPlan::single(c_clean.elapsed() * 0.4, 1);
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
        let (clean, _) = run_maxprop_with_faults(graphbench_sim::FaultPlan::none(), &cfg);
        let (faulted, c_faulted) =
            run_maxprop_with_faults(graphbench_sim::FaultPlan::single(0.05, 2), &cfg);
        assert_eq!(clean.states, faulted.states);
        assert!(faulted.recovered_from_failure);
        assert!(c_faulted.registry().counter("faults.crash.recovered") >= 1);
    }

    #[test]
    fn unreached_fault_is_not_consumed() {
        let cfg = BspConfig::default();
        let (out, cluster) =
            run_maxprop_with_faults(graphbench_sim::FaultPlan::single(80_000.0, 1), &cfg);
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
}
