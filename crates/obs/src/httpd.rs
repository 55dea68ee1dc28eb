//! Hand-rolled HTTP/1.1 on `std::net`: the serving edge of the plane.
//!
//! The dev container cannot reach the crate registry, so there is no
//! axum/hyper here — a `TcpListener` accept loop, one short-lived thread
//! per connection, `Connection: close` semantics. That is plenty for a
//! Prometheus scraper and a curious `curl`. Endpoints:
//!
//! * `GET /metrics` — all recorded runs' registries as one text-format
//!   0.0.4 exposition ([`crate::prom`]);
//! * `GET /healthz` — `ok`;
//! * `GET /runs` — JSON index of in-flight and finished runs;
//! * `GET /runs/<id>/journal` — a finished run's journal (JSONL);
//! * `GET /runs/<id>/recent` — the run's ring-buffer snapshots (JSONL).
//!
//! A request head (request line plus headers) is read under three limits,
//! so no client can grow the server's memory or hold a thread: at most
//! 8 KiB and 64 header lines, answered `431` when exceeded, all within one
//! 10 s deadline, after which the connection is closed.
//!
//! The module also provides [`http_get`], the std-only client the scrape
//! tests and the `prom_dump --scrape` CI step use.

use crate::prom;
use crate::recorder::FlightRecorder;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes a request head (request line plus headers) may take.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// Header lines a request may carry.
const MAX_HEADERS: usize = 64;

/// Time a client has to send its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(10);

/// A running metrics server. The accept loop runs on a detached thread for
/// the life of the process; dropping this handle does not stop it (bench
/// bins serve until exit, which is the Prometheus model).
pub struct ObsServer {
    local_addr: SocketAddr,
}

impl ObsServer {
    /// The address actually bound — resolves port 0 to the ephemeral port.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

/// Bind `addr` (e.g. `127.0.0.1:9184` or `0.0.0.0:0`) and serve the
/// recorder. Returns an error string suitable for the harness's
/// `cannot bind` failure path when the address is malformed or taken.
pub fn serve(addr: &str, recorder: Arc<FlightRecorder>) -> Result<ObsServer, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
    let local_addr = listener.local_addr().map_err(|e| format!("{addr}: {e}"))?;
    std::thread::Builder::new()
        .name("graphbench-obs".into())
        .spawn(move || accept_loop(listener, recorder))
        .map_err(|e| format!("{addr}: cannot spawn server thread: {e}"))?;
    Ok(ObsServer { local_addr })
}

fn accept_loop(listener: TcpListener, recorder: Arc<FlightRecorder>) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let recorder = Arc::clone(&recorder);
        // One thread per connection: scrape traffic is a request per
        // few seconds, not a load-balancer target.
        let _ = std::thread::Builder::new()
            .name("graphbench-obs-conn".into())
            .spawn(move || handle_connection(stream, &recorder, HEAD_DEADLINE));
    }
}

/// A connection's reads, all ending by one deadline: each read waits at
/// most what is left of it, so a client that sends its head a byte at a
/// time cannot stretch it.
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let mut stream = self.stream;
        stream.set_read_timeout(Some(left))?;
        stream.read(buf)
    }
}

/// How reading a request head ended.
enum Head {
    /// The request line, read whole with every header after it.
    Complete(String),
    /// Over [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`].
    TooLarge,
    /// The client stopped sending, hung up or missed the deadline.
    Broken,
}

/// Read the request line and drain the headers (none is needed) up to the
/// blank line, within the limits. Bytes that are not UTF-8 are replaced.
fn read_head(reader: &mut BufReader<std::io::Take<Deadline<'_>>>) -> Head {
    let mut request_line = None;
    let mut headers = 0usize;
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(_) if line.ends_with(b"\n") => {}
            // A line cut off by the byte limit, not by the client.
            Ok(_) if reader.get_ref().limit() == 0 => return Head::TooLarge,
            Ok(_) | Err(_) => return Head::Broken,
        }
        match request_line {
            None => request_line = Some(String::from_utf8_lossy(&line).into_owned()),
            Some(_) if line == b"\r\n" || line == b"\n" => break,
            Some(_) => {
                headers += 1;
                if headers > MAX_HEADERS {
                    return Head::TooLarge;
                }
            }
        }
    }
    Head::Complete(request_line.unwrap_or_default())
}

/// Serve one request: read its head within the limits and `head_deadline`,
/// then answer it. Over a limit the answer is `431`; a broken or late head
/// gets none.
fn handle_connection(mut stream: TcpStream, recorder: &FlightRecorder, head_deadline: Duration) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let until = Instant::now() + head_deadline;
    let reader = Deadline { stream: &stream, until }.take(MAX_HEAD_BYTES);
    let request_line = match read_head(&mut BufReader::new(reader)) {
        Head::Complete(line) => line,
        Head::TooLarge => {
            let body = "request header fields too large\n";
            respond(&mut stream, 431, "text/plain; charset=utf-8", body);
            return;
        }
        Head::Broken => return,
    };

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(&mut stream, 405, "text/plain; charset=utf-8", "method not allowed\n");
        return;
    }
    route(&mut stream, path, recorder);
}

fn route(stream: &mut TcpStream, path: &str, recorder: &FlightRecorder) {
    // Strip any query string; Prometheus appends none, humans might.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => respond(stream, 200, prom::CONTENT_TYPE, &recorder.render_prom()),
        "/healthz" => respond(stream, 200, "text/plain; charset=utf-8", "ok\n"),
        "/runs" => respond(stream, 200, "application/json; charset=utf-8", &recorder.runs_json()),
        _ => {
            if let Some(rest) = path.strip_prefix("/runs/") {
                if let Some(run_id) = rest.strip_suffix("/journal") {
                    return match recorder.journal(run_id) {
                        Some(journal) => {
                            respond(stream, 200, "application/x-ndjson; charset=utf-8", &journal)
                        }
                        None => not_found(stream),
                    };
                }
                if let Some(run_id) = rest.strip_suffix("/recent") {
                    return match recorder.recent_jsonl(run_id) {
                        Some(recent) => {
                            respond(stream, 200, "application/x-ndjson; charset=utf-8", &recent)
                        }
                        None => not_found(stream),
                    };
                }
            }
            not_found(stream);
        }
    }
}

fn not_found(stream: &mut TcpStream) {
    respond(stream, 404, "text/plain; charset=utf-8", "not found\n");
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // A peer that hung up mid-response is its own problem.
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Minimal std-only HTTP GET: returns `(status, body)`. Used by the scrape
/// tests and `prom_dump --scrape`; follows no redirects, speaks
/// `Connection: close` only.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let mut head_and_body = text.splitn(2, "\r\n\r\n");
    let head = head_and_body.next().unwrap_or("");
    let body = head_and_body.next().unwrap_or("").to_string();
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{Observer, ProgressEvent, RunMeta};
    use graphbench_sim::MetricsRegistry;

    fn recorder_with_one_run() -> Arc<FlightRecorder> {
        let rec = Arc::new(FlightRecorder::new(8));
        let meta = RunMeta {
            run_id: "0001-giraph-pagerank-twitter-m16".into(),
            engine: "Giraph".into(),
            workload: "PageRank".into(),
            dataset: "twitter".into(),
            machines: 16,
            scale: 300,
            seed: 7,
        };
        rec.on_run_start(&meta);
        let mut reg = MetricsRegistry::new();
        reg.inc("events.compute", 4);
        rec.on_superstep(
            &meta,
            &ProgressEvent {
                run_id: meta.run_id.clone(),
                superstep: 0,
                active_vertices: 9,
                messages: 1,
                net_bytes: 2,
                sim_seconds: 0.5,
                host_seconds: 0.0,
                journal_events: 1,
            },
            &reg,
        );
        rec
    }

    #[test]
    fn serves_metrics_healthz_and_404_on_an_ephemeral_port() {
        let server = serve("127.0.0.1:0", recorder_with_one_run()).unwrap();
        let addr = server.local_addr().to_string();
        let t = Duration::from_secs(5);

        let (status, body) = http_get(&addr, "/healthz", t).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = http_get(&addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        crate::prom::check_exposition(&body).unwrap();
        assert!(body.contains("graphbench_events_compute_total"));
        assert!(body.contains("run=\"0001-giraph-pagerank-twitter-m16\""));

        let (status, body) = http_get(&addr, "/runs", t).unwrap();
        assert_eq!(status, 200);
        let index = graphbench_sim::json::parse(&body).unwrap();
        assert_eq!(index[0]["engine"], "Giraph");

        let (status, _) = http_get(&addr, "/nope", t).unwrap();
        assert_eq!(status, 404);
        // Journal not recorded yet -> 404; recent exists.
        let (status, _) =
            http_get(&addr, "/runs/0001-giraph-pagerank-twitter-m16/journal", t).unwrap();
        assert_eq!(status, 404);
        let (status, body) =
            http_get(&addr, "/runs/0001-giraph-pagerank-twitter-m16/recent", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.trim().starts_with('{'));
    }

    #[test]
    fn binding_a_taken_port_reports_the_address() {
        let first = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = first.local_addr().unwrap().to_string();
        let Err(err) = serve(&addr, Arc::new(FlightRecorder::default())) else {
            panic!("binding {addr} twice succeeded");
        };
        assert!(err.contains(&addr), "{err}");
    }

    #[test]
    fn malformed_addresses_error_instead_of_panicking() {
        assert!(serve("not-an-address", Arc::new(FlightRecorder::default())).is_err());
        assert!(serve("127.0.0.1:notaport", Arc::new(FlightRecorder::default())).is_err());
    }

    /// Send `request` on a fresh connection to `addr`, then read what comes
    /// back: the response, or `None` if the server closed without one.
    fn exchange(addr: SocketAddr, request: &[u8]) -> Option<String> {
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        client.write_all(request).unwrap();
        let mut raw = Vec::new();
        match client.read_to_end(&mut raw) {
            Ok(_) if !raw.is_empty() => Some(String::from_utf8_lossy(&raw).into_owned()),
            _ => None,
        }
    }

    fn with_headers(count: usize) -> Vec<u8> {
        let headers: String = (0..count).map(|i| format!("X-Header-{i}: {i}\r\n")).collect();
        format!("GET /healthz HTTP/1.1\r\n{headers}\r\n").into_bytes()
    }

    #[test]
    fn oversized_heads_are_refused_and_the_server_keeps_serving() {
        let server = serve("127.0.0.1:0", recorder_with_one_run()).unwrap();
        let addr = server.local_addr();
        let t = Duration::from_secs(5);

        // One unterminated 1 MiB line: the server stops reading at 8 KiB
        // and answers 431 or closes, so the writer fails or finishes.
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut writer = client.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            let line = vec![b'a'; 1 << 20];
            let _ = writer.write_all(&line);
        });
        let begun = Instant::now();
        let mut raw = Vec::new();
        let _ = client.read_to_end(&mut raw);
        let reply = String::from_utf8_lossy(&raw);
        assert!(raw.is_empty() || reply.starts_with("HTTP/1.1 431 "), "{reply}");
        // Cut off at the limit, not at a read timeout.
        assert!(begun.elapsed() < Duration::from_secs(5), "{:?}", begun.elapsed());
        drop(client);
        flood.join().unwrap();

        // 100 headers are over the cap; 60 are not.
        let reply = exchange(addr, &with_headers(100));
        let reply = reply.as_deref().unwrap_or("");
        assert!(reply.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"), "{reply}");
        let reply = exchange(addr, &with_headers(60)).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");

        let (status, body) = http_get(&addr.to_string(), "/healthz", t).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
    }

    #[test]
    fn a_drip_fed_head_is_cut_off_at_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A header byte every 20 ms for up to 10 s, until the server hangs up.
        let drip = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
            for &b in b"X-Slow: ".iter().cycle().take(500) {
                std::thread::sleep(Duration::from_millis(20));
                if client.write_all(&[b]).is_err() {
                    break;
                }
            }
            let mut raw = Vec::new();
            let _ = client.read_to_end(&mut raw);
            raw
        });
        let (stream, _) = listener.accept().unwrap();
        let begun = Instant::now();
        handle_connection(stream, &FlightRecorder::default(), Duration::from_millis(300));
        let held = begun.elapsed();
        assert!(held >= Duration::from_millis(300), "{held:?}");
        assert!(held < Duration::from_secs(3), "the head held the thread for {held:?}");
        assert!(drip.join().unwrap().is_empty(), "a late head got an answer");
    }

    #[test]
    fn hostile_heads_are_answered_or_closed() {
        use graphbench_graph::rng::{for_each_seed, hostile_text};
        const VALID: [&str; 4] = [
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            "GET /metrics?x=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            "GET /runs/0001-giraph-pagerank-twitter-m16/recent HTTP/1.0\n\n",
            "POST /runs HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        ];
        let recorder = recorder_with_one_run();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Each head is sent whole and the write side shut, so the server
        // sees its end at once; it runs on this thread, so a panic fails
        // the test.
        let ask = |head: &[u8]| {
            let mut client = TcpStream::connect(addr).unwrap();
            client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            client.write_all(head).unwrap();
            client.shutdown(std::net::Shutdown::Write).unwrap();
            let (stream, _) = listener.accept().unwrap();
            handle_connection(stream, &recorder, Duration::from_secs(5));
            let mut raw = Vec::new();
            let _ = client.read_to_end(&mut raw);
            String::from_utf8_lossy(&raw).into_owned()
        };
        for_each_seed(256, |seed, rng| {
            let head = hostile_text(rng, &VALID);
            let reply = ask(head.as_bytes());
            let status = reply.strip_prefix("HTTP/1.1 ").and_then(|r| r.get(..3));
            assert!(
                reply.is_empty() || matches!(status, Some("200" | "404" | "405" | "431")),
                "seed {seed}: {head:?} got {reply:?}"
            );
        });
        let reply = ask(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n") && reply.ends_with("\r\n\r\nok\n"));
    }
}
