//! Host-time spans recorded by the benchmark around its own calls into
//! the simulator's layers. Nothing here runs inside the program: a span
//! brackets one public call, so a layer's time is measured from
//! outside it.
//!
//! Spans stay in memory and are written out once the run ends. A
//! disabled tracer records nothing and only calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `engine.vllm.run`; the layer is the part
    /// before the first dot.
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Cell within the repetition (offline-tune has six).
    pub cell: u32,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
    cell: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            cell: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag spans opened from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Tag spans opened from now on with `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Run `f` inside a span named `name` (no span when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            rep: self.rep,
            cell: self.cell,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another tracer's spans in behind this one's, re-basing
    /// their times and parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.origin.duration_since(self.origin).as_secs_f64();
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_s += shift;
            s.end_s += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span: its duration minus the time its direct
    /// children cover. Spans on one thread nest, so children never
    /// overlap each other.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Total self time per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer()).or_insert(0.0) += own;
        }
        out
    }

    /// Total time and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.duration(), n + 1))
    }

    /// The spans and their self times as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_times();
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, o) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.duration();
            e.2 += o;
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n"
        );
        out.push_str("  \"self_s_by_layer\": {");
        let layers: Vec<String> = self
            .self_by_layer()
            .iter()
            .map(|(l, t)| format!("\"{l}\": {t}"))
            .collect();
        out.push_str(&layers.join(", "));
        out.push_str("},\n  \"by_name\": {\n");
        let names: Vec<String> = by_name
            .iter()
            .map(|(n, (c, t, o))| {
                format!("    \"{n}\": {{\"count\": {c}, \"total_s\": {t}, \"self_s\": {o}}}")
            })
            .collect();
        out.push_str(&names.join(",\n"));
        out.push_str("\n  },\n  \"spans\": [\n");
        let spans: Vec<String> = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, o)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "    {{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {}, \
                     \"parent\": {}, \"rep\": {}, \"cell\": {}}}",
                    s.name, s.start_s, s.end_s, o, parent, s.rep, s.cell
                )
            })
            .collect();
        out.push_str(&spans.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.span("bench.rep", |t| {
            t.span("engine.run", |t| t.span("roofline.eval", |_| ()));
            t.span("fleet.run", |_| ());
        });
        let own = t.self_times();
        let total: f64 = own.iter().sum();
        assert!((total - t.spans()[0].duration()).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(own.iter().all(|&o| o >= 0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("engine.run", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
