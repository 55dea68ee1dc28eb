//! In-memory span recorder for the traced run. Spans are opened and closed
//! only here in the benchmark, around calls into the library's public
//! functions; nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    /// `layer.call`, e.g. `graph.save`; the metric the span feeds.
    pub name: &'static str,
    /// Which cell or dataset the call was for.
    pub subject: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Time `f` as a child of the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        subject: &str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            subject: subject.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        r
    }

    /// Start the next pass; returns its id.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    /// Seconds spent in spans called `name` during `pass`.
    pub fn seconds_in(&self, name: &str, pass: u32) -> f64 {
        // `fold`, not `sum`: an empty `sum` of f64 is -0.0.
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .fold(0.0, |t, s| t + s.seconds())
    }

    /// Seconds covered by the direct children of the span called `root` in `pass`.
    pub fn child_seconds(&self, root: &str, pass: u32) -> f64 {
        let Some(root_id) = self.spans.iter().position(|s| s.pass == pass && s.name == root) else {
            return 0.0;
        };
        self.spans.iter().filter(|s| s.parent == Some(root_id)).fold(0.0, |t, s| t + s.seconds())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"subject\": \"{}\", \"pass\": {}, \
                 \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name, s.subject, s.pass, s.start_us, s.end_us
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}
