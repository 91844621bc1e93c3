//! `store_load` — measure loading a `.rdfb` store against re-parsing the
//! equivalent N-Triples text, on the scale-1.0 EFO dataset.
//!
//! ```text
//! store_load [--scale F] [--reps N] [--json-dir D|none]
//! ```
//!
//! Writes `BENCH_store_load.json` with three timings — reparse, owned
//! store load, and the borrowed (zero-copy) view — the speedups between
//! them, the resident-bytes footprint of the borrowed view, and an
//! embedded `run_report` from one instrumented load. The speedups here
//! compare single-threaded algorithms, so they are meaningful on any
//! core count and bypass the parallel-speedup honesty gate.
//! The acceptance bar for the store subsystem is a ≥ 5× faster load;
//! the binary exits non-zero below 1× (load slower than parse) so CI
//! would catch a regression that large immediately.

use rdf_bench::BenchRecord;
use rdf_datagen::{generate_efo, EfoConfig};
use rdf_io::{parse_graph, write_graph};
use rdf_model::Vocab;
use rdf_obs::Recorder;
use rdf_align::Threads;
use rdf_store::Store;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut reps = 5usize;
    let mut json_dir = Some(".".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs a count"));
            }
            "--json-dir" => {
                let dir =
                    it.next().unwrap_or_else(|| die("--json-dir needs a path"));
                json_dir = (dir != "none").then(|| dir.clone());
            }
            "--help" | "-h" => {
                println!(
                    "usage: store_load [--scale F] [--reps N] \
                     [--json-dir D|none]"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    let reps = reps.max(1);

    // Workload: the final version of the EFO-like dataset — the largest
    // single graph of the paper's §5.1 workload family.
    let ds = generate_efo(&EfoConfig::default().scaled(scale));
    let version = ds.versions.last().expect("dataset has versions");
    let text = write_graph(&version.graph, &ds.vocab);
    let store_bytes =
        rdf_store::graph_to_bytes(&ds.vocab, &version.graph).unwrap();
    let nodes = version.graph.node_count();
    let triples = version.graph.triple_count();
    println!(
        "workload: EFO scale {scale}, final version: {nodes} nodes, \
         {triples} triples"
    );
    println!(
        "  N-Triples {} bytes, .rdfb store {} bytes",
        text.len(),
        store_bytes.len()
    );

    // Re-parse path: tokenizing + interning the whole document.
    let t0 = Instant::now();
    let mut parsed_count = 0usize;
    for _ in 0..reps {
        let mut vocab = Vocab::new();
        let g = parse_graph(&text, &mut vocab).unwrap();
        parsed_count = g.triple_count();
    }
    let parse_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    // Store-load path: checksums + column copies, no string hashing per
    // node or triple. A store handle checksums its image once, so every
    // rep opens a fresh handle over the in-memory image (one aligned
    // copy of it) to pay the checksum pass, as a cold load does.
    let rec = Recorder::disabled();
    let t0 = Instant::now();
    let mut loaded_count = 0usize;
    for _ in 0..reps {
        let store = Store::from_bytes(&store_bytes).unwrap();
        let (_, g) = store.graph(Threads::Fixed(1), &rec).unwrap();
        loaded_count = g.triple_count();
    }
    let load_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    assert_eq!(parsed_count, loaded_count, "both paths build the same graph");

    // Zero-copy path: the id columns are served as slices of the store
    // buffer. Measured against the owned load above, not the reparse.
    let t0 = Instant::now();
    let mut view_count = 0usize;
    let mut resident_view = 0usize;
    for _ in 0..reps {
        let store = Store::from_bytes(&store_bytes).unwrap();
        let (_, view) = store.view(&rec).unwrap();
        view_count = view.triple_count();
        resident_view = view.resident_bytes();
    }
    let view_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
    assert_eq!(view_count, loaded_count, "view serves the same graph");

    let speedup = parse_ms / load_ms;
    let speedup_view = load_ms / view_ms;
    println!("  reparse: {parse_ms:.3} ms/iter ({reps} reps)");
    println!("  load   : {load_ms:.3} ms/iter ({reps} reps)");
    println!("  view   : {view_ms:.3} ms/iter ({reps} reps)");
    println!("  speedup: {speedup:.2}x (reparse/load)");
    println!("  speedup: {speedup_view:.2}x (load/view)");
    println!("  resident: borrowed view {resident_view} bytes");

    if let Some(dir) = &json_dir {
        let mut record = BenchRecord::new("store_load", load_ms)
            .param("scale", scale)
            .param("reps", reps)
            .counts(nodes, triples)
            .metric("parse_ms", parse_ms)
            .metric("load_ms", load_ms)
            // Deliberately NOT gated through `BenchRecord::speedup`:
            // this compares two single-threaded *algorithms* (reparse
            // vs decode), which is meaningful on any core count.
            .metric("speedup", speedup)
            .metric("view_ms", view_ms)
            // Owned load vs borrowed view: also single-threaded on both
            // sides, so it likewise bypasses the parallel-speedup gate.
            .metric("speedup_view", speedup_view)
            .metric("ntriples_bytes", text.len() as f64)
            .metric("store_bytes", store_bytes.len() as f64)
            .metric("bytes_resident_view", resident_view as f64);

        // One instrumented load so the BENCH json carries per-section
        // spans alongside the headline timings.
        let rec = Recorder::jsonl_writer(Box::new(std::io::sink()));
        let store = Store::from_bytes(&store_bytes).unwrap();
        match store.graph(Threads::Fixed(1), &rec).map(|_| rec.finish()) {
            Ok(Ok(Some(report))) => record = record.with_report(report),
            Ok(Ok(None)) => {}
            Ok(Err(e)) => eprintln!("store_load: trace not embedded: {e}"),
            Err(e) => eprintln!("store_load: trace not embedded: {e}"),
        }
        match record.write_to(dir) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("BENCH json not written: {e}"),
        }
    }

    if speedup < 1.0 {
        eprintln!("store_load: loading is SLOWER than re-parsing");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("store_load: {msg}");
    std::process::exit(2)
}
