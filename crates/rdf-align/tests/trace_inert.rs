//! Instrumentation must be *inert*: an alignment run traced through a
//! [`rdf_obs::JsonlRecorder`] produces bit-identical output (dense
//! colors, §5 metrics, unaligned report) to the same run under the
//! disabled recorder, at every thread count {1, 4} × shard count
//! {1, 4} — and the trace itself is structurally deterministic: the
//! per-family span *counts* (never the timings) are identical across
//! thread counts, because only spans emit event lines and spans are
//! keyed by run structure (rounds, shards, sections), not by worker
//! scheduling.

use proptest::prelude::*;
use rdf_align::pipeline::{align_with, Method};
use rdf_align::{Recorder, RefineEngine, Threads};
use rdf_model::{RdfGraph, RdfGraphBuilder, Vocab};
use rdf_obs::RunReport;
use std::io;
use std::sync::{Arc, Mutex};

/// An in-memory JSONL sink shareable between the recorder (which owns
/// a `Box<dyn Write + Send>`) and the test (which reads it back).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Run one traced alignment, returning the aligned output plus the
/// validated trace aggregate. `RunReport::from_jsonl` re-parses every
/// emitted line (JSON object, `ev` key, `name`/`us` on spans), so a
/// malformed event fails the test here.
fn traced(
    vocab: &Vocab,
    g1: &RdfGraph,
    g2: &RdfGraph,
    method: Method,
    threads: Threads,
    stream_shards: Option<usize>,
) -> (rdf_align::pipeline::Aligned, RunReport) {
    let buf = SharedBuf::default();
    let rec = Arc::new(Recorder::jsonl_writer(Box::new(buf.clone())));
    let mut engine = RefineEngine::with_recorder(threads, Arc::clone(&rec));
    engine.set_stream_shards(stream_shards);
    let out = align_with(vocab, g1, g2, method, &mut engine);
    drop(engine);
    rec.finish().expect("in-memory sink cannot fail");
    let report = RunReport::from_jsonl(&buf.text())
        .expect("every emitted line is schema-valid JSONL");
    (out, report)
}

/// The untraced run of the same configuration.
fn untraced(
    vocab: &Vocab,
    g1: &RdfGraph,
    g2: &RdfGraph,
    method: Method,
    threads: Threads,
    stream_shards: Option<usize>,
) -> rdf_align::pipeline::Aligned {
    let mut engine = RefineEngine::new(threads);
    engine.set_stream_shards(stream_shards);
    align_with(vocab, g1, g2, method, &mut engine)
}

/// Span families and their event counts — the structural shape of a
/// trace, with every timing stripped.
fn span_counts(report: &RunReport) -> Vec<(String, u64)> {
    report
        .spans
        .iter()
        .map(|s| (s.name.clone(), s.count))
        .collect()
}

/// A random pair of graph versions sharing a vocabulary (same shape as
/// the streaming-equivalence suite).
fn arb_versions() -> impl Strategy<Value = (Vocab, RdfGraph, RdfGraph)> {
    (1usize..24, 1usize..24, any::<u64>()).prop_map(|(m1, m2, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut vocab = Vocab::new();
        let build = |vocab: &mut Vocab,
                     triples: usize,
                     next: &mut dyn FnMut() -> u64| {
            let mut b = RdfGraphBuilder::new(vocab);
            for _ in 0..triples {
                let s = format!("s{}", next() % 6);
                let p = format!("p{}", next() % 4);
                let o = format!("o{}", next() % 6);
                match next() % 6 {
                    0 => b.uuu(&s, &p, &o),
                    1 => b.uul(&s, &p, &o),
                    2 => b.uub(&s, &p, &o),
                    3 => b.bul(&s, &p, &o),
                    4 => b.buu(&s, &p, &o),
                    _ => b.bub(&s, &p, &o),
                }
            }
            b.finish()
        };
        let g1 = build(&mut vocab, m1, &mut next);
        let g2 = build(&mut vocab, m2, &mut next);
        (vocab, g1, g2)
    })
}

const THREADS: [usize; 2] = [1, 4];
const SHARDS: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Null vs Jsonl recorder: bit-identical alignment output at every
    /// thread × shard configuration, in-RAM and streaming; and the
    /// trace's span counts depend only on the run structure — never on
    /// the thread count.
    #[test]
    fn tracing_is_inert_and_structurally_deterministic(
        (vocab, g1, g2) in arb_versions()
    ) {
        let method = Method::Hybrid;

        // In-RAM path: Null vs Jsonl at each thread count, then span
        // counts across thread counts.
        let mut inram_shapes = Vec::new();
        for t in THREADS {
            let base = untraced(
                &vocab, &g1, &g2, method, Threads::Fixed(t), None);
            let (out, report) = traced(
                &vocab, &g1, &g2, method, Threads::Fixed(t), None);
            prop_assert_eq!(
                out.partition().colors(), base.partition().colors());
            prop_assert_eq!(out.edges.ratio(), base.edges.ratio());
            prop_assert_eq!(&out.unaligned, &base.unaligned);
            inram_shapes.push(span_counts(&report));
        }
        // Span counts must not depend on thread count.
        prop_assert_eq!(&inram_shapes[0], &inram_shapes[1]);

        // Streaming path: same matrix, plus the peak-shard gauge must
        // be thread-invariant (it is a property of the sharding).
        for shards in SHARDS {
            let mut shapes = Vec::new();
            let mut gauges = Vec::new();
            for t in THREADS {
                let base = untraced(
                    &vocab, &g1, &g2, method, Threads::Fixed(t),
                    Some(shards));
                let (out, report) = traced(
                    &vocab, &g1, &g2, method,
                    Threads::Fixed(t), Some(shards));
                prop_assert_eq!(
                    out.partition().colors(), base.partition().colors());
                prop_assert_eq!(out.edges.ratio(), base.edges.ratio());
                prop_assert_eq!(&out.unaligned, &base.unaligned);
                shapes.push(span_counts(&report));
                gauges.push(report.gauge("stream.peak_shard_bytes"));
            }
            // Neither span counts nor the peak-shard gauge may
            // depend on the thread count.
            prop_assert_eq!(&shapes[0], &shapes[1]);
            prop_assert_eq!(&gauges[0], &gauges[1]);
        }
    }
}
