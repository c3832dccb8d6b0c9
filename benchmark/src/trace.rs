//! In-memory spans, recorded from the benchmark's own files around the
//! calls into each layer, and written out when the pass ends.
//!
//! Two kinds of span share one stream:
//!
//! * **measured** spans wrap a real call (a public `Cloud` API call of
//!   the workload, or one stage of the stage replay);
//! * **twin** spans are the leaf operations a measured call is known
//!   to perform inside (an AEAD seal inside `SecureChannel::seal_into`,
//!   a Schnorr sign inside `Quote::create`), executed *alone, right
//!   after* their parent with inputs of the same size, because the
//!   crates carry no spans of their own yet. A twin's timestamps are
//!   real but lie after its parent's interval, so self time is taken
//!   on durations: a span's self time is its duration minus the
//!   durations of its direct children. It is signed: a twin that ran
//!   a little slower alone than inside its parent leaves a small
//!   negative remainder, and keeping the sign is what makes the self
//!   times of a tree sum to its root's duration exactly.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no parent".
pub type SpanId = u32;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Parent span, or 0 for a root.
    pub parent: SpanId,
    /// The session (or API call) the span belongs to.
    pub session: u32,
    /// Dotted name; everything before the last dot is the layer.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Timed alone after its parent (see the module docs).
    pub twin: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The layer a span name belongs to: the name minus its last segment.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// The span recorder of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Runs `f` inside a measured span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        session: u32,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        self.record(name, parent, session, false, f)
    }

    /// Runs `f` as a twin child of `parent` (timed alone).
    pub fn twin<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        session: u32,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        self.record(name, parent, session, true, f)
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        session: u32,
        twin: bool,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = self.epoch.elapsed();
        let result = std::hint::black_box(f());
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            parent,
            session,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            twin,
        });
        (result, self.spans.len() as SpanId)
    }

    /// Every span, in recording order; span `i` has id `i + 1`.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (the stage replay's onto the
    /// workload's), re-basing ids and timestamps.
    pub fn absorb(&mut self, other: Tracer) {
        let id_base = self.spans.len() as SpanId;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: if s.parent == 0 { 0 } else { s.parent + id_base },
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Self time of every span: its duration minus its direct
    /// children's durations (signed, see the module docs).
    pub fn self_ns(&self) -> Vec<i64> {
        let mut children = vec![0i64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                children[span.parent as usize - 1] += span.dur_ns() as i64;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.dur_ns() as i64 - kids)
            .collect()
    }

    /// Self time per layer and per chunk of `chunk` consecutive
    /// sessions, nanoseconds: the replay's counterpart of a timed
    /// slice, so that repetitions can be combined chunk by chunk.
    pub fn chunked_self_ns(&self, chunk: u32, chunks: usize) -> BTreeMap<&'static str, Vec<i64>> {
        let selfs = self.self_ns();
        self.chunked(chunk, chunks, |span| layer_of(span.name), |i, _| selfs[i])
    }

    /// Span durations per name and per chunk of sessions, nanoseconds.
    pub fn chunked_dur_ns(&self, chunk: u32, chunks: usize) -> BTreeMap<&'static str, Vec<i64>> {
        self.chunked(
            chunk,
            chunks,
            |span| span.name,
            |_, span| span.dur_ns() as i64,
        )
    }

    fn chunked(
        &self,
        chunk: u32,
        chunks: usize,
        key: impl Fn(&Span) -> &'static str,
        value: impl Fn(usize, &Span) -> i64,
    ) -> BTreeMap<&'static str, Vec<i64>> {
        let mut totals: BTreeMap<&'static str, Vec<i64>> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let slot = ((span.session / chunk) as usize).min(chunks - 1);
            totals.entry(key(span)).or_insert_with(|| vec![0; chunks])[slot] += value(i, span);
        }
        totals
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// The trace file: a header object plus `spans` as compact rows
    /// `[id, parent, session, name index, start_ns, end_ns, twin]`,
    /// names and layers in side tables (see `benchmark/README.md`).
    pub fn to_json(&self, header: Vec<(String, Json)>) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut doc = header;
        doc.push((
            "columns".into(),
            Json::Arr(
                [
                    "id", "parent", "session", "name", "start_ns", "end_ns", "twin",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ));
        doc.push((
            "names".into(),
            Json::Arr(names.iter().map(|n| Json::str(*n)).collect()),
        ));
        doc.push((
            "layers".into(),
            Json::Arr(names.iter().map(|n| Json::str(layer_of(n))).collect()),
        ));
        let mut out = Json::Obj(doc).encode();
        // Splice the rows in by hand: tens of thousands of spans do not
        // need a tree of `Json` values.
        out.pop();
        out.push_str(",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name was collected");
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{},{},{},{},{},{},{}]{sep}",
                i + 1,
                s.parent,
                s.session,
                name,
                s.start_ns,
                s.end_ns,
                u8::from(s.twin)
            )
            .expect("write to String");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let (_, parent) = t.span("core.attestation.validate", 0, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        let (_, child) = t.twin("core.pca.certify", parent, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.twin("crypto.schnorr_verify", child, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let selfs = t.self_ns();
        let durs: Vec<i64> = t.spans().iter().map(|s| s.dur_ns() as i64).collect();
        assert_eq!(selfs[0], durs[0] - durs[1]);
        assert_eq!(selfs[1], durs[1] - durs[2]);
        assert_eq!(selfs[2], durs[2]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(selfs.iter().sum::<i64>(), durs[0]);
        assert_eq!(t.chunked_self_ns(4, 3)["core.pca"], [0, selfs[1], 0]);
        assert_eq!(t.chunked_dur_ns(4, 3)["core.pca.certify"], [0, durs[1], 0]);
        assert_eq!(layer_of("crypto.seal"), "crypto");
        let doc =
            crate::json::parse(&t.to_json(vec![("workload".into(), Json::str("x"))])).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}
