//! Helper binary of the end-to-end alignment benchmark (`run.py` drives
//! it; see `README.md` in this directory).
//!
//! Subcommands:
//!
//! * `gen efo|gtopdb --scale F --seed N --versions K [--write I,J] --out DIR`
//!   — write seeded dataset versions as N-Triples (`efo-v1.nt`, …) and
//!   print one JSON line of their sizes;
//! * `reference METHOD SRC TGT` — print the in-process
//!   `rdf_cli::align(..).render()` report every timed report must equal;
//! * `check-import NT STORE` — exit 0 iff the store reloads term-exact
//!   against the parsed N-Triples input;
//! * `trace --method M --seconds S --import NT --scratch OUT --socket SOCK SRC TGT [SRC TGT ..]`
//!   — the traced pass: time each layer by calling its crate's public
//!   function from outside, in the order `rdf_cli::align_traced` (cold)
//!   and `rdf_cli::serve::handle_request` (warm cache hit) call them,
//!   plus the two halves of an import and round trips to the `rdf serve`
//!   daemon at SOCK, and print one JSON object of per-layer medians.

use rdf_align::metrics::{edge_stats, node_counts};
use rdf_align::partition::unaligned_nodes;
use rdf_align::pipeline::{Aligned, Method};
use rdf_align::{
    hybrid_partition_with, overlap_align_with, RefineEngine, Threads, WeightedPartition,
};
use rdf_cli::serve::{handle_request, ServeState, DEFAULT_CACHE_BYTES};
use rdf_cli::AlignOutcome;
use rdf_model::{rebase_into, CombinedGraph, RdfGraph, Vocab};
use rdf_obs::Recorder;
use rdf_serve::{Request, Response};
use rdf_store::{Layout, StoreWriter};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("reference") => reference(&args[1..]),
        Some("check-import") => check_import(&args[1..]),
        Some("trace") => trace(&args[1..]),
        _ => Err("usage: perfbench gen|reference|check-import|trace ...".to_string()),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` options plus positional arguments.
struct Args {
    opts: BTreeMap<String, String>,
    pos: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Res<Args> {
        let mut opts = BTreeMap::new();
        let mut pos = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let v = it.next().ok_or(format!("--{key} needs a value"))?;
                    opts.insert(key.to_string(), v.clone());
                }
                None => pos.push(a.clone()),
            }
        }
        Ok(Args { opts, pos })
    }

    fn get(&self, key: &str) -> Res<&str> {
        self.opts
            .get(key)
            .map(String::as_str)
            .ok_or(format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key} needs a number"))
    }
}

fn err(path: &Path, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", path.display())
}

fn gen(args: &[String]) -> Res<String> {
    let a = Args::parse(args)?;
    let dataset = a.pos.first().ok_or("gen needs efo|gtopdb")?.as_str();
    let scale: f64 = a.num("scale")?;
    let seed: u64 = a.num("seed")?;
    let versions: usize = a.num("versions")?;
    let out = PathBuf::from(a.get("out")?);
    let write: Vec<usize> = match a.opts.get("write") {
        Some(list) => list
            .split(',')
            .map(|v| v.parse().map_err(|_| format!("bad --write {list}")))
            .collect::<Res<_>>()?,
        None => (1..=versions).collect(),
    };
    let ds = match dataset {
        "efo" => {
            let mut cfg = rdf_datagen::EfoConfig::default().scaled(scale);
            cfg.seed = seed;
            cfg.versions = versions;
            rdf_datagen::generate_efo(&cfg)
        }
        "gtopdb" => {
            let mut cfg = rdf_datagen::GtopdbConfig::default().scaled(scale);
            cfg.seed = seed;
            cfg.versions = versions;
            rdf_datagen::generate_gtopdb(&cfg)
        }
        other => return Err(format!("unknown dataset {other:?}")),
    };
    std::fs::create_dir_all(&out).map_err(|e| err(&out, e))?;
    let mut files = Vec::new();
    for v in write {
        let g = &ds
            .versions
            .get(v.wrapping_sub(1))
            .ok_or(format!("version {v} not generated"))?
            .graph;
        let path = out.join(format!("{dataset}-v{v}.nt"));
        rdf_io::save_file(&path, g, &ds.vocab).map_err(|e| err(&path, e))?;
        files.push(format!(
            "{{\"file\":\"{}\",\"nodes\":{},\"triples\":{}}}",
            rdf_obs::json::escape(&path.display().to_string()),
            g.node_count(),
            g.triple_count()
        ));
    }
    Ok(format!("{{\"versions\":[{}]}}\n", files.join(",")))
}

fn reference(args: &[String]) -> Res<String> {
    let [method, src, tgt] = args else {
        return Err("usage: perfbench reference METHOD SRC TGT".into());
    };
    let outcome = rdf_cli::align(
        Path::new(src),
        Path::new(tgt),
        method,
        None,
        Threads::Auto,
        false,
    )
    .map_err(|e| e.to_string())?;
    Ok(outcome.render())
}

fn check_import(args: &[String]) -> Res<String> {
    let [nt, store] = args else {
        return Err("usage: perfbench check-import NT STORE".into());
    };
    let (nt, store) = (Path::new(nt), Path::new(store));
    let mut vocab = Vocab::new();
    let file = std::fs::File::open(nt).map_err(|e| err(nt, e))?;
    let parsed =
        rdf_io::parse_graph_reader(BufReader::new(file), &mut vocab).map_err(|e| err(nt, e))?;
    let (svocab, stored) = rdf_store::open_any(store)
        .and_then(|r| r.read_graph(Threads::Auto))
        .map_err(|e| err(store, e))?;
    if parsed.node_count() != stored.node_count() || parsed.triple_count() != stored.triple_count()
    {
        return Err(format!(
            "{}: counts differ from {} (nodes {} vs {}, triples {} vs {})",
            store.display(),
            nt.display(),
            stored.node_count(),
            parsed.node_count(),
            stored.triple_count(),
            parsed.triple_count()
        ));
    }
    // Canonical N-Triples is line-sorted and spells every term out, so
    // equal text means the same terms in the same triples.
    if rdf_io::write_graph(&parsed, &vocab) != rdf_io::write_graph(&stored, &svocab) {
        return Err(format!(
            "{}: terms differ from {}",
            store.display(),
            nt.display()
        ));
    }
    Ok(format!(
        "ok nodes {} triples {}\n",
        stored.node_count(),
        stored.triple_count()
    ))
}

/// Samples in milliseconds (or counts), keyed by metric name. Values
/// recorded during one operation add up (an align opens two stores);
/// [`Samples::end_op`] turns the sums into one sample per metric.
#[derive(Default)]
struct Samples {
    done: BTreeMap<&'static str, Vec<f64>>,
    op: BTreeMap<&'static str, f64>,
}

impl Samples {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.op.entry(key).or_default() += v;
    }

    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(key, ms(t.elapsed()));
        out
    }

    fn end_op(&mut self) {
        for (k, v) in std::mem::take(&mut self.op) {
            self.done.entry(k).or_default().push(v);
        }
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .done
            .iter()
            .map(|(k, v)| format!("\"{k}\":{{\"median\":{},\"n\":{}}}", median(v), v.len()))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// One store decoded the way `rdf_cli::load_input_traced` does it,
/// with `store.open_ms`, `store.read_ms` and `store.bytes_read` taken
/// around `rdf_store::open_any` and `AnyReader::read_graph_traced`.
fn load_store(path: &Path, s: &mut Samples) -> Res<(Vocab, RdfGraph)> {
    let reader = s
        .time("store.open_ms", || rdf_store::open_any(path))
        .map_err(|e| err(path, e))?;
    let bytes = std::fs::metadata(path).map_err(|e| err(path, e))?.len();
    s.add("store.bytes_read", bytes as f64);
    s.time("store.read_ms", || {
        reader.read_graph_traced(Threads::Auto, &Recorder::disabled())
    })
    .map_err(|e| err(path, e))
}

/// The pipeline half of one align — union, refinement, §5 metrics and
/// rendering — timed per layer in the order
/// `rdf_align::pipeline::align_with_recorder` and `AlignOutcome::render`
/// run them. The engine's recorder supplies the fixpoint totals, round
/// counts and barrier waits: `align.refine_ms` is the time inside
/// refinement fixpoints and `align.overlap_match_ms` the rest of the
/// method call (overlap matching and σ-Edit for `overlap`; the
/// bookkeeping between fixpoints for `hybrid`).
///
/// With `traced == false` the engine gets the disabled recorder the
/// real program uses and the samples are not kept: that run is the
/// untraced baseline of the tracing-overhead figure.
fn pipeline_layers(
    vocab: &Vocab,
    (g1, g2): (RdfGraph, RdfGraph),
    method_name: &str,
    paths: (&Path, &Path),
    traced: bool,
    s: &mut Samples,
) -> Res<String> {
    let method = rdf_cli::parse_method(method_name, None).map_err(|e| e.to_string())?;
    let rec = Arc::new(if traced {
        Recorder::jsonl_writer(Box::new(std::io::sink()))
    } else {
        Recorder::disabled()
    });
    let mut engine = RefineEngine::with_recorder(Threads::Auto, Arc::clone(&rec));
    let combined = s.time("model.union_ms", || CombinedGraph::union(vocab, &g1, &g2));
    let t = Instant::now();
    let weighted = match method {
        Method::Hybrid => {
            WeightedPartition::zero(hybrid_partition_with(&combined, &mut engine).partition)
        }
        Method::Overlap(cfg) => overlap_align_with(&combined, vocab, cfg, &mut engine).weighted,
        other => return Err(format!("method {other:?} is not benchmarked")),
    };
    let method_ms = ms(t.elapsed());
    let (edges, nodes, unaligned) = s.time("align.metrics_ms", || {
        (
            edge_stats(&weighted.partition, &combined),
            node_counts(&weighted.partition, &combined),
            unaligned_nodes(&weighted.partition, &combined),
        )
    });
    drop(engine);
    if let Some(report) = rec.finish().map_err(|e| format!("recorder: {e}"))? {
        let fixpoint_ms = report
            .span("refine.fixpoint")
            .map_or(0.0, |sp| sp.total_us as f64 / 1e3);
        let barrier_us: u64 = report
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("par.barrier_wait_us."))
            .map(|(_, v)| v)
            .sum();
        s.add("align.refine_ms", fixpoint_ms);
        s.add("align.overlap_match_ms", method_ms - fixpoint_ms);
        s.add(
            "align.refine_rounds",
            report.span("refine.round").map_or(0, |sp| sp.count) as f64,
        );
        s.add("par.barrier_wait_ms", barrier_us as f64 / 1e3);
    }
    let outcome = AlignOutcome {
        method: method_name.to_string(),
        source: (
            paths.0.display().to_string(),
            g1.node_count(),
            g1.triple_count(),
        ),
        target: (
            paths.1.display().to_string(),
            g2.node_count(),
            g2.triple_count(),
        ),
        aligned: Aligned {
            combined,
            weighted,
            edges,
            nodes,
            unaligned,
        },
    };
    let report = s.time("cli.render_ms", || outcome.render());
    // The result and both rebased graphs are dropped before the caller
    // sees the report; like the store-side teardown, that is on the
    // blocking path without being a layer call.
    s.time("model.drop_ms", move || drop((outcome, g1, g2)));
    Ok(report)
}

/// One import, split at the call boundary `rdf_store::import_ntriples_layout`
/// hides: `rdf_io::parse_graph_reader`, then the store encode and write.
fn import_layers(nt: &Path, out: &Path, s: &mut Samples) -> Res<()> {
    let file = std::fs::File::open(nt).map_err(|e| err(nt, e))?;
    let mut vocab = Vocab::new();
    let graph = s
        .time("io.parse_ms", || {
            rdf_io::parse_graph_reader(BufReader::new(file), &mut vocab)
        })
        .map_err(|e| err(nt, e))?;
    s.time("store.write_ms", || -> Res<()> {
        let file = std::fs::File::create(out).map_err(|e| err(out, e))?;
        StoreWriter::new(BufWriter::new(file))
            .write_graph_layout(&vocab, &graph, Layout::default())
            .map_err(|e| err(out, e))?
            .flush()
            .map_err(|e| err(out, e))
    })
}

fn check_report(got: &str, want: &str, what: &str) -> Res<()> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: report differs from the reference"))
    }
}

/// Run `f` until `budget` has passed and at least `min` times.
fn repeat(budget: Duration, min: usize, mut f: impl FnMut(usize) -> Res<()>) -> Res<()> {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        f(n)?;
        n += 1;
    }
    Ok(())
}

/// A client connection to a running `rdf serve` daemon.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path) -> Res<Client> {
        let stream = UnixStream::connect(socket).map_err(|e| err(socket, e))?;
        let writer = stream.try_clone().map_err(|e| err(socket, e))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn request(&mut self, req: &Request) -> Res<String> {
        let line = req.to_line() + "\n";
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("socket write: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("socket read: {e}"))?;
        match Response::parse(&reply).map_err(|e| format!("bad response: {e}"))? {
            Response::Ok { report, .. } => Ok(report),
            Response::Err { message, .. } => Err(message),
        }
    }
}

fn trace(args: &[String]) -> Res<String> {
    let a = Args::parse(args)?;
    let method = a.get("method")?.to_string();
    let budget = Duration::from_secs_f64(a.num("seconds")?);
    let import_nt = PathBuf::from(a.get("import")?);
    let scratch = PathBuf::from(a.get("scratch")?);
    let socket = PathBuf::from(a.get("socket")?);
    if a.pos.is_empty() || a.pos.len() % 2 != 0 {
        return Err("trace needs SRC TGT pairs".into());
    }
    let pairs: Vec<(&Path, &Path)> = a
        .pos
        .chunks(2)
        .map(|c| (Path::new(&c[0]), Path::new(&c[1])))
        .collect();
    let align = |k: usize| -> Res<String> {
        let (src, tgt) = pairs[k];
        Ok(
            rdf_cli::align(src, tgt, &method, None, Threads::Auto, false)
                .map_err(|e| e.to_string())?
                .render(),
        )
    };
    let wants: Vec<String> = (0..pairs.len()).map(align).collect::<Res<_>>()?;

    // Cold: the one-shot path, store decode included. Alternate the
    // layered (traced) align with the untraced library call so both see
    // the same machine state; their median difference is the tracing
    // overhead.
    let mut cold = Samples::default();
    repeat(budget.mul_f64(0.4), 3, |n| {
        let k = n % pairs.len();
        let (src, tgt) = pairs[k];
        let t = Instant::now();
        let mut vocab = Vocab::new();
        let mut load = |path: &Path, vocab: &mut Vocab| -> Res<RdfGraph> {
            let (store_vocab, graph) = load_store(path, &mut cold)?;
            let rebased = cold.time("model.rebase_ms", || {
                rebase_into(vocab, &store_vocab, &graph)
            });
            // `load_input_traced` drops the store-side dictionary and
            // graph on return: teardown on the blocking path.
            cold.time("model.drop_ms", move || drop((store_vocab, graph)));
            Ok(rebased)
        };
        let r1 = load(src, &mut vocab)?;
        let r2 = load(tgt, &mut vocab)?;
        let report = pipeline_layers(&vocab, (r1, r2), &method, pairs[k], true, &mut cold)?;
        cold.time("model.drop_ms", move || drop(vocab));
        cold.add("total_traced_ms", ms(t.elapsed()));
        check_report(&report, &wants[k], "traced cold align")?;

        let t = Instant::now();
        let report = align(k)?;
        cold.add("total_untraced_ms", ms(t.elapsed()));
        cold.end_op();
        check_report(&report, &wants[k], "untraced cold align")
    })?;

    // Warm: what `rdf serve` does on a cache hit. Three samples
    // alternate: a round trip to the daemon, `handle_request` on a
    // warmed in-process `ServeState`, and its layered replay (rebase
    // both decoded stores into a fresh session vocabulary, then union,
    // refine, metrics and render), traced and untraced.
    let mut decoded = Vec::new();
    for (src, tgt) in &pairs {
        let mut discard = Samples::default();
        decoded.push((
            load_store(src, &mut discard)?,
            load_store(tgt, &mut discard)?,
        ));
    }
    let state = Arc::new(ServeState::new(Threads::Auto, 2, DEFAULT_CACHE_BYTES));
    let request = |k: usize| Request::Align {
        source: pairs[k].0.display().to_string(),
        target: pairs[k].1.display().to_string(),
        method: method.clone(),
        theta: None,
        streaming: false,
        threads: None,
        trace: false,
    };
    let served = |k: usize| -> Res<String> {
        match handle_request(&state, request(k)) {
            Response::Ok { report, .. } => Ok(report),
            Response::Err { message, .. } => Err(message),
        }
    };
    let mut client = Client::connect(&socket)?;
    for (k, want) in wants.iter().enumerate() {
        check_report(&served(k)?, want, "in-process warm-up request")?;
        check_report(
            &client.request(&request(k))?,
            want,
            "served warm-up request",
        )?;
    }
    let mut warm = Samples::default();
    repeat(budget.mul_f64(0.45), 3 * pairs.len(), |n| {
        let k = n % pairs.len();
        let ((v1, g1), (v2, g2)) = &decoded[k];
        let t = Instant::now();
        let report = client.request(&request(k))?;
        warm.add("serve.round_trip_ms", ms(t.elapsed()));
        check_report(&report, &wants[k], "served align")?;

        let t = Instant::now();
        let report = served(k)?;
        warm.add("serve.handle_ms", ms(t.elapsed()));
        check_report(&report, &wants[k], "in-process served align")?;

        let t = Instant::now();
        let mut vocab = Vocab::new();
        let r1 = warm.time("model.rebase_ms", || rebase_into(&mut vocab, v1, g1));
        let r2 = warm.time("model.rebase_ms", || rebase_into(&mut vocab, v2, g2));
        let report = pipeline_layers(&vocab, (r1, r2), &method, pairs[k], true, &mut warm)?;
        warm.time("model.drop_ms", move || drop(vocab));
        warm.add("total_traced_ms", ms(t.elapsed()));
        check_report(&report, &wants[k], "traced warm replay")?;

        let t = Instant::now();
        let mut vocab = Vocab::new();
        let r1 = rebase_into(&mut vocab, v1, g1);
        let r2 = rebase_into(&mut vocab, v2, g2);
        let mut discard = Samples::default();
        let report = pipeline_layers(&vocab, (r1, r2), &method, pairs[k], false, &mut discard)?;
        drop(vocab);
        warm.add("total_untraced_ms", ms(t.elapsed()));
        warm.end_op();
        check_report(&report, &wants[k], "untraced warm replay")
    })?;

    let mut import = Samples::default();
    repeat(budget.mul_f64(0.15), 2, |_| {
        import_layers(&import_nt, &scratch, &mut import)?;
        import.end_op();
        Ok(())
    })?;
    let _ = std::fs::remove_file(&scratch);
    Ok(format!(
        "{{\"cold\":{},\"warm\":{},\"import\":{}}}\n",
        cold.to_json(),
        warm.to_json(),
        import.to_json()
    ))
}
