//! Library half of the `rdf` command-line tool.
//!
//! Each subcommand is a plain function returning its report text, so the
//! end-to-end tests can call the exact code the binary runs (and compare
//! the binary's stdout against it byte-for-byte). Inputs may be `.rdfb`
//! single-file stores, `.rdfm` sharded-store manifests, or N-Triples
//! text; the format is resolved by [`pipeline`] from the file's magic
//! bytes and container kind, never the extension.

#![warn(missing_docs)]

pub mod pipeline;
pub mod serve;
pub mod signals;

use crate::pipeline::{ctx, open_store};
use rdf_align::pipeline::{align_with, Aligned, Method, DEFAULT_STREAM_SHARDS};
use rdf_align::{RefineEngine, Threads};
use rdf_model::{RdfGraph, ShardColumnsSource, Vocab};
use rdf_obs::{Recorder, RunReport};
use rdf_store::{Store, StoreError};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

pub use pipeline::load_input;

/// Any failure surfaced to the CLI user, with file context baked into
/// the message.
#[derive(Debug)]
pub struct CliError(String);

impl CliError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        CliError(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// `rdf import [--shards N] <input.nt> <output>` — stream-parse
/// N-Triples into a dictionary-encoded store. Without `--shards` the
/// output is one `.rdfb` file; with `--shards N` it is a `.rdfm`
/// manifest plus N subject-hash-partitioned shard files next to it.
pub fn import(
    input: &Path,
    output: &Path,
    shards: Option<usize>,
) -> Result<String, CliError> {
    import_traced(input, output, shards, &Recorder::disabled())
}

/// [`import`] with instrumentation: the streaming parse+write (or, for
/// sharded output, the parse and the sharded write separately) are
/// wrapped in spans. The report text is byte-identical to the untraced
/// run.
pub fn import_traced(
    input: &Path,
    output: &Path,
    shards: Option<usize>,
    rec: &Recorder,
) -> Result<String, CliError> {
    let file = std::fs::File::open(input).map_err(|e| ctx(input, e))?;
    let reader = std::io::BufReader::new(file);
    let in_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    match shards {
        None => {
            let out =
                std::fs::File::create(output).map_err(|e| ctx(output, e))?;
            let mut sp = rec.span("import.run");
            sp.field("bytes_in", in_bytes);
            let (vocab, graph) = rdf_store::import_ntriples(
                reader,
                std::io::BufWriter::new(out),
            )
            .map_err(|e| ctx(input, e))?;
            sp.field("nodes", graph.node_count());
            sp.field("triples", graph.triple_count());
            drop(sp);
            let out_bytes =
                std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
            Ok(format!(
                "imported {} -> {}\n  nodes {} triples {} labels {}\n  {} bytes -> {} bytes\n",
                input.display(),
                output.display(),
                graph.node_count(),
                graph.triple_count(),
                vocab.len(),
                in_bytes,
                out_bytes,
            ))
        }
        Some(n) => {
            let mut vocab = Vocab::new();
            let graph = {
                let mut sp = rec.span("import.parse");
                sp.field("bytes_in", in_bytes);
                rdf_io::parse_graph_reader(reader, &mut vocab)
                    .map_err(|e| ctx(input, e))?
            };
            let paths = {
                let mut sp = rec.span("import.write");
                sp.field("shards", n);
                sp.field("triples", graph.triple_count());
                rdf_store::save_sharded(output, &vocab, &graph, n)
                    .map_err(|e| ctx(output, e))?
            };
            let out_bytes: u64 = paths
                .iter()
                .map(|p| {
                    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
                })
                .sum();
            Ok(format!(
                "imported {} -> {} ({} shards)\n  nodes {} triples {} labels {}\n  {} bytes -> {} bytes across {} files\n",
                input.display(),
                output.display(),
                n,
                graph.node_count(),
                graph.triple_count(),
                vocab.len(),
                in_bytes,
                out_bytes,
                paths.len(),
            ))
        }
    }
}

/// `rdf export <input> <output.nt>` — write a single-file or sharded
/// store back out as canonical (line-sorted) N-Triples.
pub fn export(input: &Path, output: &Path) -> Result<String, CliError> {
    let (vocab, graph) = open_store(input)?
        .graph(Threads::Auto, &Recorder::disabled())
        .map_err(|e| ctx(input, e))?;
    rdf_io::save_file(output, &graph, &vocab).map_err(|e| ctx(output, e))?;
    Ok(format!(
        "exported {} -> {}\n  nodes {} triples {}\n",
        input.display(),
        output.display(),
        graph.node_count(),
        graph.triple_count(),
    ))
}

/// `rdf info [--bisim [--streaming] [--threads N]] <file>` — header,
/// counts and per-section (or per-shard) sizes; all checksums —
/// including every shard file of a manifest — are verified before this
/// returns.
///
/// With `bisim = Some(threads)`, graph stores additionally get a
/// maximal-bisimulation summary (quotient classes and rounds) computed
/// through the parallel [`RefineEngine`] on the given thread
/// configuration. With `streaming` also set, the engine reads its
/// adjacency shard at a time straight from the shard files
/// ([`RefineEngine::bisimulation_shards`]) — the stitched graph is
/// never materialised, so this requires a `.rdfm` manifest. The
/// summary is byte-identical either way.
///
/// Store loads emit `store.open` / `store.section` / `shard.*` spans
/// and the refinement its `refine.*` spans into `rec`; the report text
/// is byte-identical to an untraced run. Each file is read and
/// checksummed once.
pub fn info(
    input: &Path,
    bisim: Option<Threads>,
    streaming: bool,
    rec: &Arc<Recorder>,
) -> Result<String, CliError> {
    info_with(input, |p| Store::open(p), bisim, streaming, rec)
}

/// [`info`] over a store opened by `open` — the `serve` daemon passes
/// [`Store::open_owned`], so it never maps a file it serves.
pub(crate) fn info_with(
    input: &Path,
    open: fn(&Path) -> Result<Store, StoreError>,
    bisim: Option<Threads>,
    streaming: bool,
    rec: &Arc<Recorder>,
) -> Result<String, CliError> {
    if streaming && bisim.is_none() {
        return Err(CliError::new("--streaming requires --bisim"));
    }
    let store = open(input).map_err(|e| ctx(input, e))?;
    // Refine before summarising: loading a manifest's shards records
    // the sizes the summary reports, so no shard file is read twice.
    let bisim = bisim
        .map(|threads| bisim_summary(&store, input, threads, streaming, rec))
        .transpose()?;
    let info = store.info(rec).map_err(|e| ctx(input, e))?;
    Ok(format!("{}: {info}{}", input.display(), bisim.unwrap_or_default()))
}

/// The `info --bisim` summary line. With `streaming`, the manifest's
/// shards are refined one at a time: only the color vector plus one
/// shard's columns per worker are ever resident. Otherwise a single
/// file is refined zero-copy, over a view of the store buffer, and a
/// manifest over its stitched graph; other kinds get "n/a".
fn bisim_summary(
    store: &Store,
    input: &Path,
    threads: Threads,
    streaming: bool,
    rec: &Arc<Recorder>,
) -> Result<String, CliError> {
    let mut engine = RefineEngine::with_recorder(threads, Arc::clone(rec));
    if streaming {
        let shards = match store.shards(Arc::clone(rec)) {
            Err(StoreError::WrongContentKind { .. }) => {
                return Err(ctx(
                    input,
                    "--streaming requires a sharded store (.rdfm manifest)",
                ))
            }
            shards => shards.map_err(|e| ctx(input, e))?,
        };
        let bisim = engine
            .bisimulation_shards(&shards, shards.labels())
            .map_err(|e| ctx(input, e))?;
        return Ok(bisim_line(
            bisim.partition.num_colors(),
            shards.node_count(),
            bisim.rounds,
            engine.threads(),
        ));
    }
    let (bisim, nodes) = match store.view(rec) {
        Ok((_, view)) => (
            engine.bisimulation_columns(view.labels(), &view.out_columns()),
            view.node_count(),
        ),
        Err(StoreError::WrongContentKind { .. }) => {
            match store.graph(threads, rec) {
                Ok((_, graph)) => {
                    (engine.bisimulation(graph.graph()), graph.node_count())
                }
                Err(StoreError::WrongContentKind { .. }) => {
                    return Ok(
                        "  bisimulation: n/a (not a graph store)\n".into()
                    )
                }
                Err(e) => return Err(ctx(input, e)),
            }
        }
        Err(e) => return Err(ctx(input, e)),
    };
    Ok(bisim_line(
        bisim.partition.num_colors(),
        nodes,
        bisim.rounds,
        engine.threads(),
    ))
}

/// The one `info --bisim` summary format, shared by the in-RAM and
/// streaming paths so their reports stay byte-identical.
fn bisim_line(
    classes: u32,
    nodes: usize,
    rounds: usize,
    threads: usize,
) -> String {
    format!(
        "  bisimulation: {classes} classes / {nodes} nodes in {rounds} \
         rounds ({threads} threads)\n",
    )
}

/// Parse a `--method` argument.
pub fn parse_method(
    name: &str,
    theta: Option<f64>,
) -> Result<Method, CliError> {
    match name {
        "trivial" => Ok(Method::Trivial),
        "deblank" => Ok(Method::Deblank),
        "hybrid" => Ok(Method::Hybrid),
        "overlap" => Ok(match theta {
            Some(t) => Method::overlap_with_theta(t),
            None => Method::overlap(),
        }),
        other => Err(CliError::new(format!(
            "unknown method {other:?} (expected trivial|deblank|hybrid|overlap)"
        ))),
    }
}

/// `rdf align` outcome: the full pipeline result plus input context.
pub struct AlignOutcome {
    /// Method name as given on the command line.
    pub method: String,
    /// Source path and (nodes, triples).
    pub source: (String, usize, usize),
    /// Target path and (nodes, triples).
    pub target: (String, usize, usize),
    /// The pipeline result (edge stats, node counts, unaligned nodes).
    pub aligned: Aligned,
}

impl AlignOutcome {
    /// Render the alignment report.
    pub fn render(&self) -> String {
        let a = &self.aligned;
        let (su, tu) =
            a.unaligned.iter().fold((0usize, 0usize), |(s, t), &n| {
                match a.combined.side(n) {
                    rdf_model::Side::Source => (s + 1, t),
                    rdf_model::Side::Target => (s, t + 1),
                }
            });
        format!(
            "alignment report (method = {})\n\
             \x20 source: {} (nodes {}, triples {})\n\
             \x20 target: {} (nodes {}, triples {})\n\
             \x20 aligned edge ratio    : {:.6} ({} / {} classes, {} common)\n\
             \x20 aligned edge instances: {} (source {}/{}, target {}/{})\n\
             \x20 aligned node classes  : {}\n\
             \x20 aligned nodes         : source {}/{}, target {}/{} (non-literal)\n\
             \x20 unaligned nodes       : {} (source {}, target {})\n",
            self.method,
            self.source.0,
            self.source.1,
            self.source.2,
            self.target.0,
            self.target.1,
            self.target.2,
            a.edges.ratio(),
            a.edges.source_classes,
            a.edges.target_classes,
            a.edges.common_classes,
            a.edges.aligned_instances(),
            a.edges.aligned_source_edges,
            a.edges.total_source_edges,
            a.edges.aligned_target_edges,
            a.edges.total_target_edges,
            a.nodes.aligned_classes,
            a.nodes.aligned_source_nodes,
            a.nodes.total_source_nodes,
            a.nodes.aligned_target_nodes,
            a.nodes.total_target_nodes,
            a.unaligned.len(),
            su,
            tu,
        )
    }
}

/// `rdf align [--method M] [--theta T] [--threads N] [--streaming]
/// <source> <target>` — run the full pipeline over two inputs
/// (single-file stores, sharded manifests or N-Triples, mixed freely).
/// Refinement — and the sharded load, when a manifest is given — runs
/// on the configured thread count; the reported metrics are
/// bit-identical for every count.
///
/// With `streaming`, every refinement fixpoint reads its adjacency
/// shard at a time from a [`DEFAULT_STREAM_SHARDS`]-way range
/// decomposition of the combined graph (methods `trivial`, `deblank`
/// and `hybrid` only) — the report stays byte-identical to the
/// resident path's.
pub fn align(
    source: &Path,
    target: &Path,
    method_name: &str,
    theta: Option<f64>,
    threads: Threads,
    streaming: bool,
) -> Result<AlignOutcome, CliError> {
    let rec = Arc::new(Recorder::disabled());
    align_traced(
        source,
        target,
        method_name,
        theta,
        threads,
        streaming,
        &rec,
        |path, vocab| Ok((load_input(path, vocab, threads, &rec)?, false)),
    )
    .map(|(outcome, _)| outcome)
}

/// [`align`] with instrumentation and a caller-chosen input loader.
/// Input loads emit store spans and the pipeline emits `align.*` /
/// `refine.*` spans into `rec`; the rendered report is byte-identical
/// to the untraced run — tracing is a pure side channel.
///
/// `load` reads one input into the session vocabulary and says
/// whether it was served warm: the one-shot command passes
/// [`load_input`] (never warm), the `serve` daemon its store cache.
/// Returns the outcome and whether *every* input was warm.
#[allow(clippy::too_many_arguments)]
pub fn align_traced(
    source: &Path,
    target: &Path,
    method_name: &str,
    theta: Option<f64>,
    threads: Threads,
    streaming: bool,
    rec: &Arc<Recorder>,
    mut load: impl FnMut(
        &Path,
        &mut Vocab,
    ) -> Result<(RdfGraph, bool), CliError>,
) -> Result<(AlignOutcome, bool), CliError> {
    let method = parse_method(method_name, theta)?;
    // Overlap interleaves weight propagation with refinement rounds
    // over resident columns; only the partition methods stream.
    if streaming && matches!(method, Method::Overlap(_)) {
        return Err(CliError::new(
            "the overlap method is not supported on the streaming \
             refinement path (use trivial, deblank or hybrid)",
        ));
    }
    let mut vocab = Vocab::new();
    let (g1, warm1) = load(source, &mut vocab)?;
    let (g2, warm2) = load(target, &mut vocab)?;
    let mut engine = RefineEngine::with_recorder(threads, Arc::clone(rec));
    engine.set_stream_shards(streaming.then_some(DEFAULT_STREAM_SHARDS));
    let aligned = align_with(&vocab, &g1, &g2, method, &mut engine);
    let outcome = AlignOutcome {
        method: method_name.to_string(),
        source: (
            source.display().to_string(),
            g1.node_count(),
            g1.triple_count(),
        ),
        target: (
            target.display().to_string(),
            g2.node_count(),
            g2.triple_count(),
        ),
        aligned,
    };
    Ok((outcome, warm1 && warm2))
}

/// `rdf stats <trace.jsonl>` — aggregate a `--trace` run (or re-render
/// its final report line) as a table of span, counter and gauge totals.
pub fn stats(trace: &Path) -> Result<String, CliError> {
    let text =
        std::fs::read_to_string(trace).map_err(|e| ctx(trace, e))?;
    let report = RunReport::from_jsonl(&text).map_err(|e| ctx(trace, e))?;
    Ok(report.render_table())
}

/// `rdf gen [--scale F] [--versions N] --out-dir DIR` — write the first
/// `N` versions of the seeded EFO-like dataset as N-Triples files
/// (`efo-v1.nt`, `efo-v2.nt`, …): the fixture generator for smoke tests.
pub fn gen(
    out_dir: &Path,
    scale: f64,
    versions: usize,
) -> Result<String, CliError> {
    let mut cfg = rdf_datagen::EfoConfig::default().scaled(scale);
    cfg.versions = versions.max(1);
    let ds = rdf_datagen::generate_efo(&cfg);
    std::fs::create_dir_all(out_dir).map_err(|e| ctx(out_dir, e))?;
    let mut out = String::new();
    for (i, v) in ds.versions.iter().enumerate() {
        let path = out_dir.join(format!("efo-v{}.nt", i + 1));
        rdf_io::save_file(&path, &v.graph, &ds.vocab)
            .map_err(|e| ctx(&path, e))?;
        out.push_str(&format!(
            "wrote {} (nodes {}, triples {})\n",
            path.display(),
            v.graph.node_count(),
            v.graph.triple_count(),
        ));
    }
    Ok(out)
}
