//! Paper-style table rendering and machine-readable export.

use crate::runner::RunRecord;
use crate::stats::{fmt_summary, MultiRunRecord};
use graphbench_sim::json::{self, ToJson};
use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{:>width$}  ", c, width = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Seconds formatted the way the paper annotates bars.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else {
        format!("{s:.1}s")
    }
}

/// The paper's per-run cell: total time or a failure code.
pub fn cell(rec: &RunRecord) -> String {
    rec.cell()
}

/// What a report table needs from a record — implemented by the legacy
/// single-seed [`RunRecord`] and the seed-sweep [`MultiRunRecord`], so the
/// same rendering code produces both the paper's point-estimate grids and
/// the `mean ± stddev [CI]` variant.
pub trait ReportRecord {
    fn system(&self) -> &str;
    fn workload(&self) -> &str;
    fn dataset(&self) -> &str;
    fn machines(&self) -> usize;
    /// The grid cell: seconds, a spread, or a failure code.
    fn cell(&self) -> String;
}

impl ReportRecord for RunRecord {
    fn system(&self) -> &str {
        &self.system
    }
    fn workload(&self) -> &str {
        &self.workload
    }
    fn dataset(&self) -> &str {
        &self.dataset
    }
    fn machines(&self) -> usize {
        self.machines
    }
    fn cell(&self) -> String {
        RunRecord::cell(self)
    }
}

impl ReportRecord for MultiRunRecord {
    fn system(&self) -> &str {
        MultiRunRecord::system(self)
    }
    fn workload(&self) -> &str {
        MultiRunRecord::workload(self)
    }
    fn dataset(&self) -> &str {
        MultiRunRecord::dataset(self)
    }
    fn machines(&self) -> usize {
        MultiRunRecord::machines(self)
    }
    fn cell(&self) -> String {
        MultiRunRecord::cell(self)
    }
}

/// A Figures-5-to-9-style grid: rows = system labels, columns = cluster
/// sizes, one table per (dataset, workload) present in the records.
/// Single-seed records render the paper's point-estimate cells unchanged;
/// multi-seed records render `mean ±stddev [±CI]` spreads.
pub fn figure_grid<R: ReportRecord>(records: &[R]) -> Vec<Table> {
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for r in records {
        if !keys.contains(&(r.dataset(), r.workload())) {
            keys.push((r.dataset(), r.workload()));
        }
    }
    let mut tables = Vec::new();
    for (dataset, workload) in keys {
        let subset: Vec<&R> =
            records.iter().filter(|r| r.dataset() == dataset && r.workload() == workload).collect();
        let mut sizes: Vec<usize> = subset.iter().map(|r| r.machines()).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let mut systems: Vec<&str> = Vec::new();
        for r in &subset {
            if !systems.contains(&r.system()) {
                systems.push(r.system());
            }
        }
        let mut headers = vec!["system".to_string()];
        headers.extend(sizes.iter().map(|s| format!("{s} machines")));
        let mut table = Table {
            title: format!("{workload} on {dataset} (total response time, seconds)"),
            headers,
            rows: Vec::new(),
        };
        for sys in systems {
            let mut row = vec![sys.to_string()];
            for &size in &sizes {
                let cell = subset
                    .iter()
                    .find(|r| r.system() == sys && r.machines() == size)
                    .map(|r| r.cell())
                    .unwrap_or_else(|| "-".into());
                row.push(cell);
            }
            table.rows.push(row);
        }
        tables.push(table);
    }
    tables
}

/// Bytes-moved-per-result-item (network + disk over ranks/labels/reached
/// vertices), in KB; `-` when the run produced no result to normalize by.
fn kb_per_result(rec: &RunRecord) -> String {
    if rec.result_items == 0 {
        "-".into()
    } else {
        format!("{:.1}", rec.journal.bytes_moved() as f64 / rec.result_items as f64 / 1024.0)
    }
}

/// Integrated memory footprint of a run in GB·s.
fn mem_gb_seconds(rec: &RunRecord) -> f64 {
    rec.journal.memory_byte_seconds() / (1u64 << 30) as f64
}

/// Phase breakdown table for a set of records (load / execute / save /
/// overhead / total), the stacked-bar data of Figures 6-9, with the
/// resource-efficiency columns: integrated memory footprint ("mem GB·s")
/// and bytes moved per result item ("KB/res"). The uniform load column
/// surfaces every engine's preprocessing cost — the paper calls out
/// Giraph's input format here, but the comparison needs all rows.
pub fn phase_table<'a>(title: &str, records: impl IntoIterator<Item = &'a RunRecord>) -> Table {
    let mut t = Table::new(
        title,
        &[
            "system",
            "machines",
            "load",
            "execute",
            "save",
            "overhead",
            "total",
            "graph MB",
            "mem GB·s",
            "KB/res",
            "status",
        ],
    );
    for r in records {
        let p = r.metrics.phases;
        t.row(vec![
            r.system.clone(),
            r.machines.to_string(),
            fmt_secs(p.load),
            fmt_secs(p.execute),
            fmt_secs(p.save),
            fmt_secs(p.overhead),
            fmt_secs(p.total()),
            format!("{:.1}", r.metrics.dataset_mem_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", mem_gb_seconds(r)),
            kb_per_result(r),
            r.metrics.status.code().to_string(),
        ]);
    }
    t
}

/// Resource-efficiency view of a seed sweep: per cell, the loading /
/// end-to-end spread plus memory-seconds and bytes-moved-per-result —
/// the metrics of the resource-efficiency study, aggregated over seeds.
pub fn efficiency_table<'a>(
    title: &str,
    records: impl IntoIterator<Item = &'a MultiRunRecord>,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "system",
            "workload",
            "dataset",
            "machines",
            "seeds",
            "load s",
            "total s",
            "mem GB·s",
            "KB/res",
            "status",
        ],
    );
    for r in records {
        let load = r.ok_summary_of(|rec| rec.metrics.phases.load);
        let mem = r.ok_summary_of(mem_gb_seconds);
        let kbres = r.ok_summary_of(|rec| {
            if rec.result_items == 0 {
                0.0
            } else {
                rec.journal.bytes_moved() as f64 / rec.result_items as f64 / 1024.0
            }
        });
        t.row(vec![
            r.system().to_string(),
            r.workload().to_string(),
            r.dataset().to_string(),
            r.machines().to_string(),
            r.n().to_string(),
            if load.n == 0 { "-".into() } else { fmt_summary(&load, 1) },
            r.cell(),
            if mem.n == 0 { "-".into() } else { fmt_summary(&mem, 2) },
            if kbres.n == 0 { "-".into() } else { fmt_summary(&kbres, 1) },
            r.unanimous_code().unwrap_or("MIX").to_string(),
        ]);
    }
    t
}

/// Per-label cost decomposition of one run, built from its journal — the
/// data behind the paper's Figure 10 discussion of where time goes inside
/// a phase (compute vs network vs disk vs barrier waits).
pub fn cost_breakdown(title: &str, rec: &RunRecord) -> Table {
    let mut t = Table::new(
        title,
        &[
            "label", "events", "compute", "network", "disk", "barrier", "other", "total", "net MB",
            "disk MB", "messages",
        ],
    );
    let mb = |b: u64| format!("{:.1}", b as f64 / (1024.0 * 1024.0));
    let mut rows = rec.journal.breakdown();
    rows.sort_by(|a, b| b.total().total_cmp(&a.total()));
    for row in &rows {
        t.row(vec![
            row.label.clone(),
            row.events.to_string(),
            fmt_secs(row.compute),
            fmt_secs(row.network),
            fmt_secs(row.disk),
            fmt_secs(row.barrier),
            fmt_secs(row.other),
            fmt_secs(row.total()),
            mb(row.net_bytes),
            mb(row.disk_bytes),
            row.messages.to_string(),
        ]);
    }
    t
}

/// Top-`top` critical-path contributors of one run: which (gating machine,
/// label) buckets the simulated runtime decomposes into, with the skew
/// seconds the rest of the cluster spent waiting for that machine — the
/// "why is this engine slow" view behind the paper's §6 discussion.
pub fn critical_path_table(title: &str, rec: &RunRecord, top: usize) -> Table {
    let cp = rec.journal.timeline().critical_path();
    let mut t = Table::new(title, &["machine", "label", "seconds", "share", "skew", "spans"]);
    let total = cp.total;
    for row in cp.rows.iter().take(top) {
        let machine = match row.machine {
            Some(m) => format!("m{m}"),
            None => "cluster".to_string(),
        };
        let share =
            if total > 0.0 { format!("{:.1}%", 100.0 * row.seconds / total) } else { "-".into() };
        t.row(vec![
            machine,
            row.label.clone(),
            fmt_secs(row.seconds),
            share,
            fmt_secs(row.skew),
            row.spans.to_string(),
        ]);
    }
    if cp.rows.len() > top {
        let shown: f64 = cp.rows.iter().take(top).map(|r| r.seconds).sum();
        t.row(vec![
            "...".into(),
            format!("({} more)", cp.rows.len() - top),
            fmt_secs(total - shown),
            if total > 0.0 {
                format!("{:.1}%", 100.0 * (total - shown) / total)
            } else {
                "-".into()
            },
            String::new(),
            String::new(),
        ]);
    }
    t
}

/// Export records as a JSON array. Accepts both [`RunRecord`] and
/// [`MultiRunRecord`] slices; a single-seed multi record serializes
/// byte-identically to the legacy record, so downstream consumers
/// (`render`, saved `repro_results.json`) see no format change until a
/// sweep actually has several seeds.
pub fn to_json<R: ToJson>(records: &[R]) -> String {
    json::to_string_pretty(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_sim::{
        CpuBreakdown, EventKind, Journal, JournalEvent, MetricsRegistry, Phase, PhaseTimes,
        RunMetrics, RunStatus, Trace,
    };

    fn record(system: &str, machines: usize, total: f64, ok: bool) -> RunRecord {
        RunRecord {
            system: system.into(),
            workload: "wcc".into(),
            dataset: "Twitter".into(),
            machines,
            metrics: RunMetrics {
                status: if ok {
                    RunStatus::Ok
                } else {
                    RunStatus::Failed { code: "OOM".into(), detail: String::new() }
                },
                phases: PhaseTimes {
                    load: total / 4.0,
                    execute: total / 2.0,
                    save: total / 8.0,
                    overhead: total / 8.0,
                },
                iterations: 3,
                network_bytes: 10,
                messages: 2,
                mem_peaks: vec![1, 2],
                cpu: CpuBreakdown::default(),
                dataset_mem_bytes: 3 << 20,
            },
            notes: vec![],
            updates_per_iteration: vec![],
            trace: Trace::new(),
            journal: Journal::new(),
            registry: MetricsRegistry::new(),
            runtime: total,
            host_spans: vec![],
            result_items: 0,
        }
    }

    /// An execute-phase journal event; tests override what they look at.
    fn event(label: &str, kind: EventKind, dt: f64) -> JournalEvent {
        JournalEvent {
            seq: 0,
            superstep: 0,
            phase: Phase::Execute,
            label: label.into(),
            kind,
            start: 0.0,
            dt,
            barrier_wait: 0.0,
            net_bytes: 0,
            messages: 0,
            disk_bytes: 0,
            mem_delta: vec![],
            per_machine: vec![],
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
        assert!(s.contains('1'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn figure_grid_groups_by_dataset_and_workload() {
        let records = vec![
            record("BV", 16, 100.0, true),
            record("BV", 32, 60.0, true),
            record("G", 16, 0.0, false),
        ];
        let tables = figure_grid(&records);
        assert_eq!(tables.len(), 1);
        let s = tables[0].render();
        assert!(s.contains("16 machines") && s.contains("32 machines"));
        assert!(s.contains("OOM"));
        // Missing (G, 32) renders as '-'.
        assert!(s.contains('-'));
    }

    #[test]
    fn cost_breakdown_sorts_labels_by_total_time() {
        let mut rec = record("G", 16, 80.0, true);
        rec.journal.push(event("shuffle", EventKind::Network, 5.0));
        rec.journal.push(event("superstep", EventKind::Compute, 30.0));
        let t = cost_breakdown("decomposition", &rec);
        assert_eq!(t.rows[0][0], "superstep");
        assert_eq!(t.rows[1][0], "shuffle");
        assert!(t.render().contains("30.0s"));
    }

    #[test]
    fn critical_path_table_names_gating_machines_and_truncates() {
        let mut rec = record("G", 16, 9.0, true);
        let span = |label: &str, start: f64, dt: f64, per_machine: Vec<f64>| JournalEvent {
            start,
            per_machine,
            ..event(label, EventKind::Compute, dt)
        };
        rec.journal.push(span("superstep", 0.0, 6.0, vec![6.0, 1.0]));
        rec.journal.push(span("shuffle", 6.0, 2.0, vec![1.0, 2.0]));
        rec.journal.push(span("barrier", 8.0, 1.0, vec![]));
        let t = critical_path_table("cp", &rec, 2);
        assert_eq!(t.rows[0][0], "m0");
        assert_eq!(t.rows[0][1], "superstep");
        assert!(t.rows[0][3].starts_with("66.7%"));
        // Three buckets, top 2 shown, remainder folded into a "..." row.
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[2][0], "...");
        // The cluster-wide barrier bucket exists (shown or folded).
        let full = critical_path_table("cp", &rec, 10);
        assert!(full.rows.iter().any(|r| r[0] == "cluster" && r[1] == "barrier"));
    }

    #[test]
    fn phase_table_has_all_phases() {
        let t = phase_table("x", &[record("HD", 16, 80.0, true)]);
        let s = t.render();
        assert!(s.contains("20.0s") && s.contains("40.0s") && s.contains("80.0s"));
        // The dataset memory column (3 MiB in the fixture).
        assert!(s.contains("graph MB") && s.contains("3.0"));
        // The resource-efficiency columns; no journal and no result in the
        // fixture, so zero memory-seconds and an undefined KB/res.
        assert!(s.contains("mem GB·s") && s.contains("KB/res"), "{s}");
        assert!(s.contains("0.00"));
    }

    #[test]
    fn phase_table_normalizes_bytes_moved_by_result_items() {
        let mut rec = record("BV", 16, 40.0, true);
        rec.result_items = 4;
        rec.journal.push(JournalEvent {
            net_bytes: 8192,
            messages: 1,
            ..event("shuffle", EventKind::Network, 1.0)
        });
        let t = phase_table("x", &[rec]);
        // 8192 B over 4 results = 2.0 KB per result.
        assert_eq!(t.rows[0][9], "2.0");
    }

    #[test]
    fn figure_grid_renders_multi_records_with_spread() {
        let multi = MultiRunRecord::new(
            vec![42, 43],
            vec![record("BV", 16, 100.0, true), record("BV", 16, 104.0, true)],
        );
        let tables = figure_grid(std::slice::from_ref(&multi));
        let s = tables[0].render();
        assert!(s.contains("±"), "{s}");
        // And a single-seed multi record keeps the legacy point cell.
        let single = MultiRunRecord::single(42, record("BV", 16, 100.0, true));
        let s = figure_grid(std::slice::from_ref(&single))[0].render();
        assert!(s.contains("100") && !s.contains('±'), "{s}");
    }

    #[test]
    fn efficiency_table_covers_statuses_and_spread() {
        let multi = MultiRunRecord::new(
            vec![42, 43],
            vec![record("BV", 16, 100.0, true), record("BV", 16, 104.0, true)],
        );
        let failed = MultiRunRecord::new(
            vec![42, 43],
            vec![record("G", 16, 0.0, false), record("G", 16, 0.0, false)],
        );
        let t = efficiency_table("eff", &[multi, failed]);
        assert_eq!(t.rows[0][4], "2"); // two seeds
        assert!(t.rows[0][5].contains('±'), "{:?}", t.rows[0]);
        assert_eq!(t.rows[0][9], "OK");
        // All-failed cell: no OK runs to summarize, unanimous OOM status.
        assert_eq!(t.rows[1][5], "-");
        assert_eq!(t.rows[1][6], "OOM");
        assert_eq!(t.rows[1][9], "OOM");
    }

    #[test]
    fn single_seed_multi_record_serializes_as_the_legacy_record() {
        let rec = record("BV", 16, 100.0, true);
        let legacy = json::to_string_pretty(&rec);
        let multi = MultiRunRecord::single(42, rec);
        assert_eq!(json::to_string_pretty(&multi), legacy);
        assert_eq!(to_json(std::slice::from_ref(&multi)), to_json(&[multi.primary().clone()]));
    }
}
