//! The benchmark's span recorder. Spans are opened around calls into each
//! layer from outside the program; the program's own `Obs` spans are
//! imported beneath them. Everything stays in memory until the run ends,
//! then goes out as JSONL.

use fastod_obs::{parse_trace, Obs};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    base: Instant,
    run: String,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

/// The layer a span's self time is charged to. The program's `Obs` span
/// names map onto the crates that open them; a name not listed here is
/// charged to its parent's layer.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "relation.parse" => "relation.parse",
        "relation.encode" => "relation.encode",
        "core.discover" | "discover" => "core.level1",
        "level" | "compute_candidates" => "core.candidates",
        "validate_level" => "core.validate",
        "generate_level" => "core.generate",
        "theory.output" => "theory.output",
        "maintenance_pass" => "incremental.pass",
        "serve.append" | "serve.delete" | "serve.update" | "serve_pass" => "serve.publish",
        _ => return None,
    })
}

/// A `Write` sink shared with an `Obs` recorder, so its JSONL events can
/// be read back in memory.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock poisoned")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn take(&self) -> String {
        let bytes = std::mem::take(&mut *self.0.lock().expect("trace buffer lock poisoned"));
        String::from_utf8(bytes).expect("obs writes UTF-8 JSON")
    }
}

/// An `Obs` recorder whose events the tracer can import, with the tracer
/// time at which the recorder's clock started.
pub struct ObsTap {
    pub obs: Obs,
    buf: SharedBuf,
    origin_ns: u64,
}

impl Tracer {
    pub fn new(run: String) -> Tracer {
        Tracer {
            base: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn dur_s(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    pub fn tap(&self) -> ObsTap {
        let buf = SharedBuf::default();
        let origin_ns = self.now_ns();
        let obs = Obs::with_trace_writer(Box::new(buf.clone()));
        ObsTap {
            obs,
            buf,
            origin_ns,
        }
    }

    /// Drops the events `tap` recorded so far.
    pub fn discard(&self, tap: &ObsTap) {
        tap.obs.flush();
        tap.buf.take();
    }

    /// Moves the events `tap` recorded since the last import into the
    /// trace. Each event keeps its `Obs` parent; an `Obs` root goes under
    /// the innermost benchmark span whose interval holds its midpoint.
    pub fn import(&mut self, tap: &ObsTap) {
        tap.obs.flush();
        let mut events = parse_trace(&tap.buf.take());
        // Events arrive in close order; ids are assigned at open, so
        // sorting by id puts every parent before its children.
        events.sort_by_key(|e| e.id);
        let own = self.spans.len();
        let mut ids = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            ids.insert(e.id, own + i);
        }
        for (i, e) in events.into_iter().enumerate() {
            let start_ns = tap.origin_ns + e.start_ns;
            let end_ns = start_ns + e.dur_ns;
            let mid = start_ns + e.dur_ns / 2;
            let parent = match e.parent.and_then(|p| ids.get(&p).copied()) {
                Some(p) => Some(p),
                None => self.spans[..own]
                    .iter()
                    .rev()
                    .find(|s| s.start_ns <= mid && (mid <= s.end_ns || self.open.contains(&s.id)))
                    .map(|s| s.id),
            };
            self.spans.push(Span {
                id: own + i,
                parent,
                name: e.name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Self time per layer, in seconds: each span's duration minus its
    /// direct children's, charged to its own or its nearest named
    /// ancestor's layer. Spans under no layer (the run's root) are left
    /// out, so the total over layers measures how much of the run the
    /// layer spans explain.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        // Parents always precede their children, so one pass in id order
        // resolves inherited layers.
        let mut layer_by_id: Vec<Option<&'static str>> = Vec::with_capacity(self.spans.len());
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let layer = layer_of(&s.name).or_else(|| s.parent.and_then(|p| layer_by_id[p]));
            layer_by_id.push(layer);
            if let Some(layer) = layer {
                let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
                *out.entry(layer).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
