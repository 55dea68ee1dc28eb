//! Live run progress: the rich observer layer above the simulator's hook.
//!
//! The simulator fires a bare [`graphbench_sim::ClusterObserver`] at every
//! barrier with no idea which run it belongs to. The [`ObserverHub`] adds
//! that context: the harness announces each run with [`ObserverHub::begin_run`]
//! (engine, workload, dataset, machines, scale, seed), the hub stamps every
//! superstep callback with the run's identity plus host wallclock, and fans
//! the enriched events out to any number of [`Observer`] sinks — the JSONL
//! progress log, the TTY renderer, and the in-memory flight recorder behind
//! the HTTP endpoints.
//!
//! Everything here observes; nothing feeds back. The hub holds only
//! `&`-references into the simulation and the simulated outcome is
//! byte-identical whether or not a hub is attached (locked by
//! `tests/observer_safety.rs`).

use graphbench_sim::json::{self, Object, Writer};
use graphbench_sim::{ClusterObserver, MetricsRegistry, SuperstepSnapshot};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identity of one run, announced before its engine starts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Stable id, unique within the process: `0001-giraph-pagerank-...`.
    pub run_id: String,
    pub engine: String,
    pub workload: String,
    pub dataset: String,
    pub machines: usize,
    /// Scale base (generated vertices per paper-scale unit).
    pub scale: u64,
    pub seed: u64,
}

impl RunMeta {
    /// The per-run Prometheus labels (engine, workload, dataset, machines,
    /// scale, seed, run id) in deterministic order.
    pub fn prom_labels(&self) -> Vec<(String, String)> {
        vec![
            ("run".to_string(), self.run_id.clone()),
            ("engine".to_string(), self.engine.clone()),
            ("workload".to_string(), self.workload.clone()),
            ("dataset".to_string(), self.dataset.clone()),
            ("machines".to_string(), self.machines.to_string()),
            ("scale".to_string(), self.scale.to_string()),
            ("seed".to_string(), self.seed.to_string()),
        ]
    }
}

/// One superstep, as seen at its barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    pub run_id: String,
    /// Index of the superstep the barrier closed (0-based).
    pub superstep: u64,
    pub active_vertices: u64,
    /// Cumulative messages so far.
    pub messages: u64,
    /// Cumulative network bytes so far.
    pub net_bytes: u64,
    /// Simulated seconds elapsed.
    pub sim_seconds: f64,
    /// Host wallclock seconds since the run was announced.
    pub host_seconds: f64,
    pub journal_events: u64,
}

/// End-of-run summary handed to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEnd {
    pub status: String,
    pub sim_seconds: f64,
    pub host_seconds: f64,
    pub supersteps: u64,
    /// The run's journal in JSONL, for sinks that archive it (the flight
    /// recorder serves it at `/runs/<id>/journal`). Not part of the JSONL
    /// progress log.
    pub journal_jsonl: String,
}

graphbench_sim::json_struct!(write RunMeta {
    run_id, engine, workload, dataset, machines, scale, seed,
});
graphbench_sim::json_struct!(write ProgressEvent {
    run_id, superstep, active_vertices, messages, net_bytes, sim_seconds, host_seconds,
    journal_events,
});

/// A progress sink. All callbacks are read-only and may fire from whatever
/// thread drives the engine; implementations synchronize internally.
pub trait Observer: Send + Sync {
    fn on_run_start(&self, _meta: &RunMeta) {}
    fn on_superstep(&self, _meta: &RunMeta, _ev: &ProgressEvent, _registry: &MetricsRegistry) {}
    fn on_run_end(&self, _meta: &RunMeta, _end: &RunEnd) {}
}

struct CurrentRun {
    meta: RunMeta,
    started: Instant,
    supersteps: u64,
}

/// Fans simulator callbacks out to registered [`Observer`] sinks, adding
/// run identity and host wallclock. One hub serves a whole process; runs
/// are announced sequentially (the harness executes them one at a time).
#[derive(Default)]
pub struct ObserverHub {
    sinks: Mutex<Vec<std::sync::Arc<dyn Observer>>>,
    current: Mutex<Option<CurrentRun>>,
    next_id: AtomicU64,
}

impl ObserverHub {
    pub fn new() -> Self {
        ObserverHub::default()
    }

    /// Register a sink; it sees every subsequent run.
    pub fn add_sink(&self, sink: std::sync::Arc<dyn Observer>) {
        self.sinks.lock().unwrap().push(sink);
    }

    #[cfg(test)]
    pub fn has_sinks(&self) -> bool {
        !self.sinks.lock().unwrap().is_empty()
    }

    /// Announce a run. Returns its assigned `run_id`
    /// (`0001-giraph-pagerank-twitter-m16`-style: ordinal, engine,
    /// workload, dataset, machine count).
    pub fn begin_run(
        &self,
        engine: &str,
        workload: &str,
        dataset: &str,
        machines: usize,
        scale: u64,
        seed: u64,
    ) -> String {
        let n = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let slug = |s: &str| -> String {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
                .collect()
        };
        let run_id =
            format!("{n:04}-{}-{}-{}-m{machines}", slug(engine), slug(workload), slug(dataset));
        let meta = RunMeta {
            run_id: run_id.clone(),
            engine: engine.to_string(),
            workload: workload.to_string(),
            dataset: dataset.to_string(),
            machines,
            scale,
            seed,
        };
        for sink in self.sinks.lock().unwrap().iter() {
            sink.on_run_start(&meta);
        }
        *self.current.lock().unwrap() =
            Some(CurrentRun { meta, started: Instant::now(), supersteps: 0 });
        run_id
    }

    /// Close the announced run and hand every sink the summary.
    pub fn end_run(&self, status: &str, sim_seconds: f64, journal_jsonl: String) {
        let Some(run) = self.current.lock().unwrap().take() else { return };
        let end = RunEnd {
            status: status.to_string(),
            sim_seconds,
            host_seconds: run.started.elapsed().as_secs_f64(),
            supersteps: run.supersteps,
            journal_jsonl,
        };
        for sink in self.sinks.lock().unwrap().iter() {
            sink.on_run_end(&run.meta, &end);
        }
    }
}

impl ClusterObserver for ObserverHub {
    fn on_superstep(&self, snap: &SuperstepSnapshot, registry: &MetricsRegistry) {
        let mut current = self.current.lock().unwrap();
        let Some(run) = current.as_mut() else { return };
        run.supersteps = run.supersteps.max(snap.superstep + 1);
        let ev = ProgressEvent {
            run_id: run.meta.run_id.clone(),
            superstep: snap.superstep,
            active_vertices: snap.active_vertices,
            messages: snap.messages,
            net_bytes: snap.net_bytes,
            sim_seconds: snap.clock,
            host_seconds: run.started.elapsed().as_secs_f64(),
            journal_events: snap.journal_events,
        };
        let meta = run.meta.clone();
        drop(current);
        for sink in self.sinks.lock().unwrap().iter() {
            sink.on_superstep(&meta, &ev, registry);
        }
    }
}

/// Appends one JSON object per event to a progress log file:
/// `{"type":"run_start",...}`, `{"type":"superstep",...}`,
/// `{"type":"run_end",...}`.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) the log file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink { out: Mutex::new(BufWriter::new(file)) })
    }

    /// One compact object per line, written by `fields`.
    fn write_line(&self, fields: impl Fn(&mut Writer)) {
        let line = json::to_string(&Object(fields));
        let mut out = self.out.lock().unwrap();
        // A full disk surfaces at flush time and is ignored — progress
        // logging must never abort a run that the simulator itself
        // completed.
        let _ = writeln!(out, "{line}");
    }
}

impl Observer for JsonlSink {
    fn on_run_start(&self, meta: &RunMeta) {
        self.write_line(|w| {
            w.field("type", "run_start");
            w.field("run", meta);
        });
    }

    fn on_superstep(&self, _meta: &RunMeta, ev: &ProgressEvent, _registry: &MetricsRegistry) {
        self.write_line(|w| {
            w.field("type", "superstep");
            w.field("event", ev);
        });
    }

    fn on_run_end(&self, meta: &RunMeta, end: &RunEnd) {
        self.write_line(|w| {
            w.field("type", "run_end");
            w.field("run_id", &meta.run_id);
            w.field("status", &end.status);
            w.field("sim_seconds", &end.sim_seconds);
            w.field("host_seconds", &end.host_seconds);
            w.field("supersteps", &end.supersteps);
        });
        let _ = self.out.lock().unwrap().flush();
    }
}

/// Renders live progress to stderr (`--progress`): one updating line per
/// run, a summary line when it ends. Writes to stderr so piped stdout
/// (tables, JSON reports) stays clean.
#[derive(Default)]
pub struct TtySink;

impl Observer for TtySink {
    fn on_run_start(&self, meta: &RunMeta) {
        eprint!(
            "{} {}/{} on {} ({} machines) ...",
            meta.run_id, meta.engine, meta.workload, meta.dataset, meta.machines
        );
    }

    fn on_superstep(&self, meta: &RunMeta, ev: &ProgressEvent, _registry: &MetricsRegistry) {
        eprint!(
            "\r{} {}/{}: superstep {} active={} msgs={} sim={:.1}s",
            meta.run_id,
            meta.engine,
            meta.workload,
            ev.superstep,
            ev.active_vertices,
            ev.messages,
            ev.sim_seconds
        );
    }

    fn on_run_end(&self, meta: &RunMeta, end: &RunEnd) {
        eprintln!(
            "\r{} {}/{}: {} in {:.1}s simulated ({} supersteps, {:.2}s host)",
            meta.run_id,
            meta.engine,
            meta.workload,
            end.status,
            end.sim_seconds,
            end.supersteps,
            end.host_seconds
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Default)]
    struct Capture {
        starts: Mutex<Vec<RunMeta>>,
        steps: Mutex<Vec<ProgressEvent>>,
        ends: Mutex<Vec<(String, RunEnd)>>,
    }

    impl Observer for Capture {
        fn on_run_start(&self, meta: &RunMeta) {
            self.starts.lock().unwrap().push(meta.clone());
        }
        fn on_superstep(&self, _meta: &RunMeta, ev: &ProgressEvent, _reg: &MetricsRegistry) {
            self.steps.lock().unwrap().push(ev.clone());
        }
        fn on_run_end(&self, meta: &RunMeta, end: &RunEnd) {
            self.ends.lock().unwrap().push((meta.run_id.clone(), end.clone()));
        }
    }

    fn snap(superstep: u64) -> SuperstepSnapshot {
        SuperstepSnapshot {
            superstep,
            clock: superstep as f64 + 0.5,
            active_vertices: 100 - superstep,
            messages: superstep * 10,
            net_bytes: superstep * 1000,
            journal_events: superstep * 3,
        }
    }

    #[test]
    fn hub_stamps_events_with_run_identity() {
        let hub = ObserverHub::new();
        let cap = Arc::new(Capture::default());
        hub.add_sink(cap.clone());
        assert!(hub.has_sinks());

        let id = hub.begin_run("Giraph", "PageRank", "twitter", 16, 300, 7);
        assert_eq!(id, "0001-giraph-pagerank-twitter-m16");
        let reg = MetricsRegistry::new();
        hub.on_superstep(&snap(0), &reg);
        hub.on_superstep(&snap(1), &reg);
        hub.end_run("OK", 12.5, "{}\n".to_string());

        assert_eq!(cap.starts.lock().unwrap().len(), 1);
        let steps = cap.steps.lock().unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].run_id, id);
        assert_eq!(steps[1].superstep, 1);
        assert_eq!(steps[1].active_vertices, 99);
        let ends = cap.ends.lock().unwrap();
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].1.status, "OK");
        assert_eq!(ends[0].1.supersteps, 2);
        assert_eq!(ends[0].1.journal_jsonl, "{}\n");

        // Ids keep counting across runs.
        let id2 = hub.begin_run("GraphLab sync", "WCC", "uk-2007", 32, 300, 8);
        assert_eq!(id2, "0002-graphlab-sync-wcc-uk-2007-m32");
    }

    #[test]
    fn superstep_outside_a_run_is_ignored() {
        let hub = ObserverHub::new();
        let cap = Arc::new(Capture::default());
        hub.add_sink(cap.clone());
        hub.on_superstep(&snap(0), &MetricsRegistry::new());
        hub.end_run("OK", 0.0, String::new()); // no begin_run: no-op
        assert!(cap.steps.lock().unwrap().is_empty());
        assert!(cap.ends.lock().unwrap().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_json_object_per_event() {
        let dir = std::env::temp_dir().join(format!("obs-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.jsonl");
        let hub = ObserverHub::new();
        hub.add_sink(Arc::new(JsonlSink::create(&path).unwrap()));
        hub.begin_run("Giraph", "PageRank", "twitter", 16, 300, 7);
        hub.on_superstep(&snap(0), &MetricsRegistry::new());
        hub.end_run("OK", 1.0, String::new());

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<json::Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0]["type"], "run_start");
        assert_eq!(lines[0]["run"]["engine"], "Giraph");
        assert_eq!(lines[1]["type"], "superstep");
        assert_eq!(lines[1]["event"]["superstep"].as_u64(), Some(0));
        assert!(text.lines().nth(2).unwrap().starts_with(r#"{"type":"run_end","run_id":"#));
        assert_eq!(lines[2]["status"], "OK");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_meta_prom_labels_are_deterministic() {
        let meta = RunMeta {
            run_id: "0001-x-y-z-m1".into(),
            engine: "X".into(),
            workload: "Y".into(),
            dataset: "z".into(),
            machines: 1,
            scale: 300,
            seed: 7,
        };
        let labels = meta.prom_labels();
        assert_eq!(labels[0], ("run".to_string(), "0001-x-y-z-m1".to_string()));
        assert_eq!(labels.len(), 7);
    }
}
