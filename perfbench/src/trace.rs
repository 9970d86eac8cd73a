//! In-memory spans recorded by the traced run around calls into each layer.
//! They are written out, summarised per layer, when the run ends.

use std::time::Instant;

/// One timed call: which layer, which span caused it, when it ran, and an
/// optional tag (an advance's resolution mechanism).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub tag: Option<&'static str>,
}

/// Records spans relative to its creation.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] ends it. Spans opened in between may
    /// name it as their parent.
    pub fn open(&mut self, layer: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            dur_ns: 0,
            tag: None,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.spans[id].dur_ns = end_ns - self.spans[id].start_ns;
    }

    /// Times `call` as a span of `layer` and returns its result and span id.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(layer, parent);
        let value = call();
        self.close(id);
        (value, id)
    }

    pub fn tag(&mut self, id: usize, tag: &'static str) {
        self.spans[id].tag = Some(tag);
    }

    fn of<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |span| span.layer == layer)
    }

    pub fn calls(&self, layer: &str) -> usize {
        self.of(layer).count()
    }

    /// Summed duration of a layer's spans, in seconds.
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.of(layer).map(|span| span.dur_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Summed duration of a layer's spans carrying `tag`, in seconds.
    pub fn busy_tagged_s(&self, layer: &str, tag: &str) -> f64 {
        self.of(layer)
            .filter(|span| span.tag == Some(tag))
            .map(|span| span.dur_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// A layer's span durations in microseconds.
    pub fn durations_us(&self, layer: &str) -> Vec<f64> {
        self.of(layer)
            .map(|span| span.dur_ns as f64 * 1e-3)
            .collect()
    }

    /// The summary written at the end of a traced run: per layer, its call
    /// count, busy time, and self time (busy time minus the part its child
    /// spans cover).
    pub fn render_summary(&self) -> String {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.dur_ns;
            }
        }
        let mut layers: Vec<&'static str> = self.spans.iter().map(|span| span.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let mut out = String::from("spans: layer, calls, busy_s, self_s\n");
        for layer in layers {
            let self_ns: u64 = self
                .spans
                .iter()
                .zip(&children_ns)
                .filter(|(span, _)| span.layer == layer)
                .map(|(span, children)| span.dur_ns.saturating_sub(*children))
                .sum();
            out.push_str(&format!(
                "spans: {layer}, {}, {:.6}, {:.6}\n",
                self.calls(layer),
                self.busy_s(layer),
                self_ns as f64 * 1e-9
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_layer_and_tag() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root", None);
        let (value, child) = tracer.span("leaf", Some(root), || 41 + 1);
        assert_eq!(value, 42);
        tracer.tag(child, "hot_update");
        tracer.span("leaf", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.close(root);
        assert_eq!(tracer.calls("leaf"), 2);
        assert_eq!(tracer.calls("root"), 1);
        assert!(tracer.busy_s("leaf") >= 0.002);
        assert!(tracer.busy_s("root") >= tracer.busy_s("leaf"));
        assert!(tracer.busy_tagged_s("leaf", "hot_update") < 0.002);
        assert_eq!(tracer.busy_tagged_s("leaf", "other"), 0.0);
        assert_eq!(tracer.durations_us("leaf").len(), 2);
        let summary = tracer.render_summary();
        assert!(summary.contains("spans: leaf, 2,"), "{summary}");
        assert!(summary.contains("spans: root, 1,"), "{summary}");
    }
}
