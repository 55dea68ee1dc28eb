//! On-disk CSR dataset format with mmap-backed loading.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "GBCSR\0\0\0"
//!      8     4  format_version (u32) — bump on any layout change
//!     12     4  endian marker 0x0A0B0C0D (catches byte-order mismatch)
//!     16     4  offset width in bytes: 4 or 8
//!     20     4  reserved (zero)
//!     24     8  num_vertices (u64)
//!     32     8  num_edges (u64)
//!     40     —  out_offsets[num_vertices + 1] at the declared width
//!      …     —  zero padding to the next multiple of 8
//!      …     —  out_targets[num_edges] (u32 each)
//! ```
//!
//! Every section starts 8-byte aligned (the header is 40 bytes; the offsets
//! section is padded), so a page-aligned mmap of the file yields correctly
//! aligned `u32`/`u64` slices that [`crate::csr::Seg::Mapped`] can expose
//! without copying. Loading therefore costs O(pages touched), not O(file):
//! the dataset cache makes repeated bench runs skip generation entirely.
//!
//! The in-edge index is deliberately not persisted — it is derived data that
//! each engine builds (and is charged for) per the simulated system's model.

use crate::csr::{Offsets, Seg};
use crate::{CsrGraph, VertexId};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Bump whenever the byte layout changes; the cache keys file names on this,
/// so stale files are simply never matched (and old versions are rejected
/// here if pointed at directly).
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"GBCSR\0\0\0";
const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;
const HEADER_BYTES: usize = 40;
/// Write/read granularity for the streaming paths: 1 MiB of entries at a
/// time, so a 10⁸-edge save never builds a whole-file buffer.
const IO_CHUNK: usize = 1 << 20;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serialize `g`'s out-CSR to `path`, streaming through a [`BufWriter`] in
/// bounded chunks. The parent directory must already exist.
pub fn save_csr(g: &CsrGraph, path: &Path) -> io::Result<()> {
    let (offsets, targets) = g.out_parts();
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&ENDIAN_MARKER.to_le_bytes())?;
    w.write_all(&(offsets.width() as u32).to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&g.num_edges().to_le_bytes())?;
    let offset_bytes = match offsets {
        Offsets::U32(s) => {
            write_ints(&mut w, s.as_slice(), |x| x.to_le_bytes())?;
            s.as_slice().len() * 4
        }
        Offsets::U64(s) => {
            write_ints(&mut w, s.as_slice(), |x| x.to_le_bytes())?;
            s.as_slice().len() * 8
        }
    };
    let pad = (8 - offset_bytes % 8) % 8;
    w.write_all(&[0u8; 8][..pad])?;
    write_ints(&mut w, targets, |x| x.to_le_bytes())?;
    w.flush()
}

fn write_ints<T: Copy, const N: usize>(
    w: &mut impl Write,
    vals: &[T],
    to_bytes: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(N * IO_CHUNK.min(vals.len()));
    for chunk in vals.chunks(IO_CHUNK) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&to_bytes(v));
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// A header whose sizes have been checked to fit `usize` arithmetic: every
/// offset below is computed without wrapping, so comparing `total_len` with
/// the file length is enough to keep the mapped windows in bounds.
struct Header {
    offset_width: u32,
    num_vertices: usize,
    num_edges: usize,
    offsets_at: usize,
    targets_at: usize,
    total_len: usize,
}

fn parse_header(bytes: &[u8]) -> io::Result<Header> {
    // The magic first: a file that is not ours is "not a CSR file" however
    // short it is.
    if bytes.get(..8).is_some_and(|magic| magic != MAGIC) {
        return Err(bad_data("bad magic: not a graphbench CSR file".into()));
    }
    if bytes.len() < HEADER_BYTES {
        return Err(bad_data(format!("file too short for header: {} bytes", bytes.len())));
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let version = u32_at(8);
    if version != FORMAT_VERSION {
        return Err(bad_data(format!(
            "format version {version} does not match supported version {FORMAT_VERSION}"
        )));
    }
    if u32_at(12) != ENDIAN_MARKER {
        return Err(bad_data("endian marker mismatch".into()));
    }
    let offset_width = u32_at(16);
    if offset_width != 4 && offset_width != 8 {
        return Err(bad_data(format!("unsupported offset width {offset_width}")));
    }
    let (vertices, edges) = (u64_at(24), u64_at(32));
    let num_offsets =
        usize::try_from(vertices).ok().and_then(|n| n.checked_add(1)).ok_or_else(|| {
            bad_data(format!("header declares {vertices} vertices: offset count overflows"))
        })?;
    let offset_bytes = num_offsets.checked_mul(offset_width as usize).ok_or_else(|| {
        bad_data(format!(
            "header declares {vertices} vertices at offset width {offset_width}: \
             offset table size overflows"
        ))
    })?;
    let pad = (8 - offset_bytes % 8) % 8;
    let sized = |bytes: Option<usize>| {
        bytes.ok_or_else(|| {
            bad_data(format!(
                "header declares {vertices} vertices and {edges} edges: file size overflows"
            ))
        })
    };
    let targets_at = sized(offset_bytes.checked_add(HEADER_BYTES + pad))?;
    let num_edges = sized(usize::try_from(edges).ok())?;
    let total_len = sized(num_edges.checked_mul(4).and_then(|b| b.checked_add(targets_at)))?;
    Ok(Header {
        offset_width,
        num_vertices: num_offsets - 1,
        num_edges,
        offsets_at: HEADER_BYTES,
        targets_at,
        total_len,
    })
}

/// A read-only private memory mapping of a whole file.
///
/// Uses raw `mmap(2)` bindings (no external crate) on 64-bit unix; other
/// targets fall back to buffered reads in [`load_csr`]. The mapping is
/// immutable and file-backed, so sharing across threads is sound.
pub struct MapRegion {
    ptr: *mut u8,
    len: usize,
}

// Safety: the mapping is PROT_READ + MAP_PRIVATE and never mutated.
unsafe impl Send for MapRegion {}
unsafe impl Sync for MapRegion {}

impl MapRegion {
    pub fn bytes(&self) -> &[u8] {
        // Safety: `ptr` is a live mapping of exactly `len` bytes until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl std::fmt::Debug for MapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapRegion").field("len", &self.len).finish()
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use super::MapRegion;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    // Minimal mmap(2) surface; values are identical on Linux and macOS for
    // this subset, which is all the supported 64-bit unix targets need.
    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    pub(super) fn map_file(file: &File, len: usize) -> io::Result<MapRegion> {
        if len == 0 {
            // mmap(len = 0) is EINVAL; an empty region needs no mapping.
            return Ok(MapRegion { ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(), len: 0 });
        }
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(MapRegion { ptr, len })
    }

    pub(super) fn unmap(region: &mut MapRegion) {
        if region.len > 0 {
            unsafe {
                munmap(region.ptr, region.len);
            }
        }
    }
}

impl Drop for MapRegion {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        sys::unmap(self);
    }
}

/// Load a CSR dataset written by [`save_csr`].
///
/// On 64-bit unix the file is mmapped and the returned graph's arrays alias
/// the mapping (zero-copy, [`CsrGraph::is_mapped`] is true); elsewhere the
/// file is read through a bounded buffer into owned arrays. Either way the
/// result is logically equal to the graph that was saved.
pub fn load_csr(path: &Path) -> io::Result<CsrGraph> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len() as usize;

    #[cfg(all(unix, target_pointer_width = "64"))]
    {
        let region = Arc::new(sys::map_file(&file, file_len)?);
        let h = parse_header(region.bytes())?;
        if file_len < h.total_len {
            return Err(bad_data(format!(
                "file truncated: {} bytes, header implies {}",
                file_len, h.total_len
            )));
        }
        let offsets = match h.offset_width {
            4 => Offsets::U32(Seg::Mapped {
                region: Arc::clone(&region),
                byte_offset: h.offsets_at,
                len: h.num_vertices + 1,
            }),
            _ => Offsets::U64(Seg::Mapped {
                region: Arc::clone(&region),
                byte_offset: h.offsets_at,
                len: h.num_vertices + 1,
            }),
        };
        let targets = Seg::Mapped { region, byte_offset: h.targets_at, len: h.num_edges };
        let g = CsrGraph::from_parts(h.num_vertices, offsets, targets);
        validate_offsets(&g, h.num_edges as u64)?;
        return Ok(g);
    }

    #[cfg(not(all(unix, target_pointer_width = "64")))]
    {
        load_csr_buffered(file, file_len)
    }
}

/// Portable fallback: stream the file through a bounded buffer into owned
/// arrays. Also exercised by tests on unix to keep both paths honest.
#[cfg_attr(all(unix, target_pointer_width = "64"), allow(dead_code))]
fn load_csr_buffered(mut file: File, file_len: usize) -> io::Result<CsrGraph> {
    // A file shorter than the header gets `parse_header`'s verdict, as on the
    // mapped path, not `read_exact`'s.
    let mut header = [0u8; HEADER_BYTES];
    let header = &mut header[..HEADER_BYTES.min(file_len)];
    file.read_exact(header)?;
    let h = parse_header(header)?;
    if file_len < h.total_len {
        return Err(bad_data(format!(
            "file truncated: {file_len} bytes, header implies {}",
            h.total_len
        )));
    }
    let num_offsets = h.num_vertices + 1;
    let mut offsets = Vec::with_capacity(num_offsets);
    let mut rdr = io::BufReader::new(file);
    let mut buf = vec![0u8; IO_CHUNK];
    if h.offset_width == 4 {
        read_ints(&mut rdr, &mut buf, num_offsets, 4, |b| {
            offsets.push(u32::from_le_bytes(b.try_into().unwrap()) as u64)
        })?;
    } else {
        read_ints(&mut rdr, &mut buf, num_offsets, 8, |b| {
            offsets.push(u64::from_le_bytes(b.try_into().unwrap()))
        })?;
    }
    let pad = h.targets_at - h.offsets_at - num_offsets * h.offset_width as usize;
    if pad > 0 {
        rdr.read_exact(&mut buf[..pad])?;
    }
    let mut targets: Vec<VertexId> = Vec::with_capacity(h.num_edges);
    read_ints(&mut rdr, &mut buf, h.num_edges, 4, |b| {
        targets.push(u32::from_le_bytes(b.try_into().unwrap()))
    })?;
    let g = CsrGraph::from_raw(h.num_vertices, offsets, targets);
    validate_offsets(&g, h.num_edges as u64)?;
    Ok(g)
}

fn read_ints(
    rdr: &mut impl Read,
    buf: &mut [u8],
    count: usize,
    width: usize,
    mut push: impl FnMut(&[u8]),
) -> io::Result<()> {
    let per_chunk = buf.len() / width;
    let mut remaining = count;
    while remaining > 0 {
        let n = remaining.min(per_chunk);
        let bytes = &mut buf[..n * width];
        rdr.read_exact(bytes)?;
        for b in bytes.chunks_exact(width) {
            push(b);
        }
        remaining -= n;
    }
    Ok(())
}

/// Reject files whose offset table is inconsistent — a cheap O(n) scan that
/// catches most corruption before a bad slice index panics mid-run.
fn validate_offsets(g: &CsrGraph, num_edges: u64) -> io::Result<()> {
    let (offsets, _) = g.out_parts();
    let n = offsets.len();
    let mut prev = 0u64;
    for i in 0..n {
        let o = match offsets {
            Offsets::U32(s) => s.as_slice()[i] as u64,
            Offsets::U64(s) => s.as_slice()[i],
        };
        if o < prev || o > num_edges {
            return Err(bad_data(format!("offset table not monotone at entry {i}")));
        }
        prev = o;
    }
    if prev != num_edges {
        return Err(bad_data(format!(
            "offset table ends at {prev}, header declares {num_edges} edges"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::csr_from_pairs;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphbench-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> CsrGraph {
        csr_from_pairs(&[(0, 5), (0, 2), (3, 3), (5, 0), (5, 4), (2, 1)])
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = sample();
        let path = scratch("round_trip.gbcsr");
        save_csr(&g, &path).unwrap();
        let loaded = load_csr(&path).unwrap();
        assert_eq!(loaded, g);
        assert_eq!(loaded.num_edges(), g.num_edges());
        // Adjacency order must survive exactly.
        assert_eq!(loaded.out_neighbors(0), g.out_neighbors(0));
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(loaded.is_mapped());
    }

    #[test]
    fn buffered_path_matches_mapped_path() {
        let g = sample();
        let path = scratch("buffered.gbcsr");
        save_csr(&g, &path).unwrap();
        let file = File::open(&path).unwrap();
        let len = file.metadata().unwrap().len() as usize;
        let loaded = load_csr_buffered(file, len).unwrap();
        assert_eq!(loaded, g);
        assert!(!loaded.is_mapped());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = CsrGraph::from_raw(3, vec![0, 0, 0, 0], vec![]);
        let path = scratch("empty.gbcsr");
        save_csr(&g, &path).unwrap();
        assert_eq!(load_csr(&path).unwrap(), g);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let g = sample();
        let path = scratch("version.gbcsr");
        save_csr(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_csr(&path).unwrap_err();
        assert!(err.to_string().contains("format version"), "got: {err}");
    }

    /// The error both loaders return for `path`, which must be the same one.
    fn rejection(path: &Path) -> String {
        let mapped = load_csr(path).unwrap_err().to_string();
        let file = File::open(path).unwrap();
        let len = file.metadata().unwrap().len() as usize;
        assert_eq!(load_csr_buffered(file, len).unwrap_err().to_string(), mapped);
        mapped
    }

    /// `sample()` saved under `name` with the header's offset width, vertex
    /// count and edge count overwritten.
    fn rejection_with_header(name: &str, width: u32, vertices: u64, edges: u64) -> String {
        let path = scratch(name);
        save_csr(&sample(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16..20].copy_from_slice(&width.to_le_bytes());
        bytes[24..32].copy_from_slice(&vertices.to_le_bytes());
        bytes[32..40].copy_from_slice(&edges.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        rejection(&path)
    }

    #[test]
    fn bad_magic_is_rejected() {
        // Shorter than the header: still "not ours", not "too short".
        let path = scratch("magic.gbcsr");
        std::fs::write(&path, b"definitely not a graph dataset file").unwrap();
        assert!(rejection(&path).contains("magic"));
        std::fs::write(&path, &MAGIC[..]).unwrap();
        assert!(rejection(&path).contains("too short"));
        std::fs::write(&path, b"GBC").unwrap();
        assert!(rejection(&path).contains("too short"));
    }

    #[test]
    fn vertex_count_that_overflows_the_offset_count_is_rejected() {
        let err = rejection_with_header("overflow_count.gbcsr", 4, u64::MAX, 6);
        assert!(err.contains("offset count overflows"), "got: {err}");
    }

    #[test]
    fn vertex_count_that_overflows_the_offset_table_is_rejected() {
        // 2^62 entries exist as a count, but not as 8-byte entries.
        let err = rejection_with_header("overflow_table.gbcsr", 8, u64::MAX / 4, 6);
        assert!(err.contains("offset table size overflows"), "got: {err}");
    }

    #[test]
    fn edge_count_that_overflows_the_file_size_is_rejected() {
        // u64::MAX / 4 edges are 2^64 - 4 bytes: the product fits, the sum
        // with the sections before it does not.
        for edges in [u64::MAX, u64::MAX / 4] {
            let err = rejection_with_header("overflow_size.gbcsr", 4, 6, edges);
            assert!(err.contains("file size overflows"), "{edges} edges, got: {err}");
        }
    }

    #[test]
    fn oversized_header_is_rejected() {
        // In range for every computation, far beyond the file.
        let err = rejection_with_header("oversized.gbcsr", 4, 1 << 40, 1 << 40);
        assert!(err.contains("truncated"), "got: {err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let g = sample();
        let path = scratch("trunc.gbcsr");
        save_csr(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(load_csr(&path).unwrap_err().to_string().contains("truncated"));
    }

    #[test]
    fn corrupt_offset_table_is_rejected() {
        let g = sample();
        let path = scratch("corrupt.gbcsr");
        save_csr(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First offset entry (u32 at byte 40) -> nonsense.
        bytes[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_csr(&path).unwrap_err().to_string().contains("monotone"));
    }
}
