//! The three on-disk text formats the paper's systems consume (§4.3).
//!
//! * **adj** — adjacency list: `vertex neighbour neighbour ...`; a vertex
//!   with no out-edges need not appear (Hadoop, HaLoop, Giraph, GraphLab).
//! * **adj-long** — every vertex has a line; the first value after the
//!   vertex id is the neighbour count (Blogel; it cannot create vertices
//!   that only have in-edges otherwise).
//! * **edge** — one `src dst` pair per line (GraphX, Flink Gelly, Vertica).
//!
//! The writers also report the byte size of the encoded dataset, which the
//! simulator uses to derive HDFS block counts (GraphX's default partition
//! count is the number of 64 MB blocks, §4.4.3).

use crate::{EdgeList, GraphError, VertexId};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// The dataset encodings from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphFormat {
    /// Adjacency list, vertices with no out-edges omitted.
    Adj,
    /// Adjacency list with explicit neighbour counts and a line per vertex.
    AdjLong,
    /// One edge per line.
    EdgeListFormat,
}

impl GraphFormat {
    /// Human name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            GraphFormat::Adj => "adj",
            GraphFormat::AdjLong => "adj-long",
            GraphFormat::EdgeListFormat => "edge",
        }
    }
}

/// Serialize an edge list in the given format.
///
/// ```
/// use graphbench_graph::builder::edge_list_from_pairs;
/// use graphbench_graph::format::{parse_graph, write_graph, GraphFormat};
///
/// let el = edge_list_from_pairs(&[(0, 1), (1, 0)]);
/// let text = write_graph(&el, GraphFormat::EdgeListFormat);
/// assert_eq!(text, "0 1\n1 0\n");
/// let back = parse_graph(&text, GraphFormat::EdgeListFormat, Some(2)).unwrap();
/// assert_eq!(back, el);
/// ```
pub fn write_graph(el: &EdgeList, format: GraphFormat) -> String {
    match format {
        GraphFormat::Adj => write_adj(el, false),
        GraphFormat::AdjLong => write_adj(el, true),
        GraphFormat::EdgeListFormat => {
            let mut out = String::with_capacity(el.edges.len() * 12);
            for e in &el.edges {
                let _ = writeln!(out, "{} {}", e.src, e.dst);
            }
            out
        }
    }
}

fn write_adj(el: &EdgeList, long: bool) -> String {
    let n = el.num_vertices as usize;
    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for e in &el.edges {
        adj[e.src as usize].push(e.dst);
    }
    let mut out = String::new();
    for (v, neigh) in adj.iter().enumerate() {
        if neigh.is_empty() && !long {
            continue;
        }
        let _ = write!(out, "{v}");
        if long {
            let _ = write!(out, " {}", neigh.len());
        }
        for t in neigh {
            let _ = write!(out, " {t}");
        }
        out.push('\n');
    }
    out
}

/// Incremental parser state shared by the whole-text and streaming entry
/// points: lines go in one at a time, the edge list comes out at the end.
struct LineParser {
    format: GraphFormat,
    edges: Vec<(u64, u64)>,
    max_id: u64,
    seen_vertex: bool,
    line_no: usize,
}

impl LineParser {
    fn new(format: GraphFormat) -> Self {
        LineParser { format, edges: Vec::new(), max_id: 0, seen_vertex: false, line_no: 0 }
    }

    fn line(&mut self, line: &str) -> Result<(), GraphError> {
        self.line_no += 1;
        let line_no = self.line_no;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let mut it = line.split_ascii_whitespace();
        let first: u64 = parse_field(it.next(), line_no)?;
        self.max_id = self.max_id.max(first);
        self.seen_vertex = true;
        match self.format {
            GraphFormat::EdgeListFormat => {
                let dst: u64 = parse_field(it.next(), line_no)?;
                self.max_id = self.max_id.max(dst);
                self.edges.push((first, dst));
                if it.next().is_some() {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: "trailing fields on edge line".into(),
                    });
                }
            }
            GraphFormat::Adj => {
                for field in it {
                    let dst: u64 = parse_num(field, line_no)?;
                    self.max_id = self.max_id.max(dst);
                    self.edges.push((first, dst));
                }
            }
            GraphFormat::AdjLong => {
                let declared: usize = parse_field(it.next(), line_no)? as usize;
                let mut actual = 0usize;
                for field in it {
                    let dst: u64 = parse_num(field, line_no)?;
                    self.max_id = self.max_id.max(dst);
                    self.edges.push((first, dst));
                    actual += 1;
                }
                if actual != declared {
                    return Err(GraphError::BadNeighbourCount { line: line_no, declared, actual });
                }
            }
        }
        Ok(())
    }

    fn finish(self, num_vertices: Option<u64>) -> Result<EdgeList, GraphError> {
        // Ids are stored as `VertexId`: the largest one, given or inferred,
        // has to fit, or the casts below would alias it onto a smaller id.
        const MAX_VERTICES: u64 = VertexId::MAX as u64 + 1;
        let too_large =
            |vertex| GraphError::VertexOutOfRange { vertex, num_vertices: MAX_VERTICES };
        let n = match num_vertices {
            Some(n) => n,
            None if self.seen_vertex => {
                self.max_id.checked_add(1).ok_or_else(|| too_large(self.max_id))?
            }
            None => 0,
        };
        if n > MAX_VERTICES {
            return Err(too_large(n - 1));
        }
        let mut el = EdgeList::with_capacity(n, self.edges.len());
        for (s, d) in self.edges {
            if s >= n {
                return Err(GraphError::VertexOutOfRange { vertex: s, num_vertices: n });
            }
            if d >= n {
                return Err(GraphError::VertexOutOfRange { vertex: d, num_vertices: n });
            }
            el.push(s as VertexId, d as VertexId);
        }
        Ok(el)
    }
}

/// Parse a dataset in the given format.
///
/// `num_vertices` must be supplied for formats that may omit vertices
/// (`adj`, `edge`); pass `None` to infer it as `max id + 1`.
pub fn parse_graph(
    text: &str,
    format: GraphFormat,
    num_vertices: Option<u64>,
) -> Result<EdgeList, GraphError> {
    let mut p = LineParser::new(format);
    for line in text.lines() {
        p.line(line)?;
    }
    p.finish(num_vertices)
}

fn invalid(e: GraphError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Write a dataset to `path`, streaming line-at-a-time through a
/// [`BufWriter`] — never materializing the whole encoding in memory, unlike
/// [`write_graph`]. Returns the encoded byte size (the number the simulator
/// turns into HDFS block counts).
pub fn write_graph_file(el: &EdgeList, format: GraphFormat, path: &Path) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut line = String::new();
    let mut bytes = 0u64;
    match format {
        GraphFormat::EdgeListFormat => {
            for e in &el.edges {
                line.clear();
                let _ = writeln!(line, "{} {}", e.src, e.dst);
                w.write_all(line.as_bytes())?;
                bytes += line.len() as u64;
            }
        }
        GraphFormat::Adj | GraphFormat::AdjLong => {
            let long = format == GraphFormat::AdjLong;
            let n = el.num_vertices as usize;
            let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
            for e in &el.edges {
                adj[e.src as usize].push(e.dst);
            }
            for (v, neigh) in adj.iter().enumerate() {
                if neigh.is_empty() && !long {
                    continue;
                }
                line.clear();
                let _ = write!(line, "{v}");
                if long {
                    let _ = write!(line, " {}", neigh.len());
                }
                for t in neigh {
                    let _ = write!(line, " {t}");
                }
                line.push('\n');
                w.write_all(line.as_bytes())?;
                bytes += line.len() as u64;
            }
        }
    }
    w.flush()?;
    Ok(bytes)
}

/// Read a dataset from `path`, streaming line-at-a-time through a
/// [`BufReader`] with a reused line buffer — the whole file is never held in
/// memory at once. Parse errors surface as [`io::ErrorKind::InvalidData`].
pub fn read_graph_file(
    path: &Path,
    format: GraphFormat,
    num_vertices: Option<u64>,
) -> io::Result<EdgeList> {
    let mut rdr = BufReader::new(File::open(path)?);
    let mut p = LineParser::new(format);
    let mut line = String::new();
    loop {
        line.clear();
        if rdr.read_line(&mut line)? == 0 {
            break;
        }
        p.line(&line).map_err(invalid)?;
    }
    p.finish(num_vertices).map_err(invalid)
}

fn parse_field(field: Option<&str>, line: usize) -> Result<u64, GraphError> {
    match field {
        Some(f) => parse_num(f, line),
        None => Err(GraphError::Parse { line, message: "missing field".into() }),
    }
}

fn parse_num(field: &str, line: usize) -> Result<u64, GraphError> {
    field
        .parse()
        .map_err(|_| GraphError::Parse { line, message: format!("not a vertex id: {field:?}") })
}

/// Encoded byte size of a dataset in each format (paper §4.3 notes adj is
/// the most concise; ClueWeb is 700 GB adj vs 1.2 TB edge).
pub fn encoded_size(el: &EdgeList, format: GraphFormat) -> u64 {
    write_graph(el, format).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::edge_list_from_pairs;

    fn sample() -> EdgeList {
        // 0 -> {1, 2}, 2 -> {0}; vertex 1 has no out-edges, vertex 3 isolated.
        let mut el = edge_list_from_pairs(&[(0, 1), (0, 2), (2, 0)]);
        el.num_vertices = 4;
        el
    }

    #[test]
    fn adj_omits_sinks() {
        let text = write_graph(&sample(), GraphFormat::Adj);
        assert_eq!(text, "0 1 2\n2 0\n");
    }

    #[test]
    fn adj_long_has_all_vertices_and_counts() {
        let text = write_graph(&sample(), GraphFormat::AdjLong);
        assert_eq!(text, "0 2 1 2\n1 0\n2 1 0\n3 0\n");
    }

    #[test]
    fn edge_format_one_pair_per_line() {
        let text = write_graph(&sample(), GraphFormat::EdgeListFormat);
        assert_eq!(text, "0 1\n0 2\n2 0\n");
    }

    #[test]
    fn round_trip_all_formats() {
        let el = sample();
        for fmt in [GraphFormat::Adj, GraphFormat::AdjLong, GraphFormat::EdgeListFormat] {
            let text = write_graph(&el, fmt);
            let mut parsed = parse_graph(&text, fmt, Some(4)).unwrap();
            parsed.sort_dedup();
            let mut want = el.clone();
            want.sort_dedup();
            assert_eq!(parsed, want, "format {}", fmt.name());
        }
    }

    #[test]
    fn adj_long_detects_wrong_count() {
        let err = parse_graph("0 3 1 2\n", GraphFormat::AdjLong, Some(3)).unwrap_err();
        assert_eq!(err, GraphError::BadNeighbourCount { line: 1, declared: 3, actual: 2 });
    }

    #[test]
    fn rejects_out_of_range_vertices() {
        let err = parse_graph("0 9\n", GraphFormat::EdgeListFormat, Some(3)).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 9, .. }));
    }

    #[test]
    fn rejects_ids_that_do_not_fit_a_vertex_id() {
        let path = scratch("wide-ids");
        for fmt in [GraphFormat::Adj, GraphFormat::AdjLong, GraphFormat::EdgeListFormat] {
            let count = if fmt == GraphFormat::AdjLong { "1 " } else { "" };
            for (id, declared, vertex) in [
                // Used to come back as vertex 705032704.
                (5_000_000_000, None, 5_000_000_000),
                // `max_id + 1` used to overflow.
                (u64::MAX, None, u64::MAX),
                (1 << 32, None, 1 << 32),
                // A declared range whose last id does not fit.
                (0, Some((1 << 32) + 1), 1 << 32),
            ] {
                let text = format!("{id} {count}1\n");
                let want = GraphError::VertexOutOfRange { vertex, num_vertices: 1 << 32 };
                assert_eq!(parse_graph(&text, fmt, declared), Err(want.clone()), "{text:?}");
                std::fs::write(&path, &text).unwrap();
                let err = read_graph_file(&path, fmt, declared).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert_eq!(err.to_string(), want.to_string());
            }
            // The largest id that fits still parses.
            let el = parse_graph(&format!("4294967295 {count}1\n"), fmt, None).unwrap();
            assert_eq!((el.num_vertices, el.edges[0].src), (1 << 32, VertexId::MAX));
        }
    }

    #[test]
    fn infers_vertex_count_when_unspecified() {
        let el = parse_graph("0 7\n", GraphFormat::EdgeListFormat, None).unwrap();
        assert_eq!(el.num_vertices, 8);
        let empty = parse_graph("", GraphFormat::EdgeListFormat, None).unwrap();
        assert_eq!(empty.num_vertices, 0);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let el = parse_graph("# header\n\n0 1\n", GraphFormat::EdgeListFormat, None).unwrap();
        assert_eq!(el.num_edges(), 1);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_graph("a b\n", GraphFormat::EdgeListFormat, None).is_err());
        assert!(parse_graph("0\n", GraphFormat::EdgeListFormat, None).is_err());
        assert!(parse_graph("0 1 2\n", GraphFormat::EdgeListFormat, None).is_err());
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphbench-format-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn file_round_trip_matches_in_memory_encoding() {
        let el = sample();
        for fmt in [GraphFormat::Adj, GraphFormat::AdjLong, GraphFormat::EdgeListFormat] {
            let path = scratch(&format!("sample.{}", fmt.name()));
            let bytes = write_graph_file(&el, fmt, &path).unwrap();
            // Streaming writer produces byte-identical output to the
            // in-memory writer, and reports the same encoded size.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), write_graph(&el, fmt));
            assert_eq!(bytes, encoded_size(&el, fmt));
            let back = read_graph_file(&path, fmt, Some(4)).unwrap();
            assert_eq!(back, parse_graph(&write_graph(&el, fmt), fmt, Some(4)).unwrap());
        }
    }

    #[test]
    fn file_write_to_missing_dir_errors() {
        let path = scratch("no-such-dir").join("g.edge");
        assert!(write_graph_file(&sample(), GraphFormat::EdgeListFormat, &path).is_err());
    }

    #[test]
    fn file_parse_errors_surface_as_invalid_data() {
        let path = scratch("garbage.edge");
        std::fs::write(&path, "not numbers\n").unwrap();
        let err = read_graph_file(&path, GraphFormat::EdgeListFormat, None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn adj_is_most_concise_for_dense_out_lists() {
        let el = edge_list_from_pairs(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert!(
            encoded_size(&el, GraphFormat::Adj) < encoded_size(&el, GraphFormat::EdgeListFormat)
        );
    }
}
