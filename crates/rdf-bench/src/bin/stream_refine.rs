//! `stream_refine` — wall-clock *and peak-residency* of the refinement
//! engine's shard path against its resident (in-RAM) path, on the EFO
//! dataset (default scale 1.0) saved as sharded stores.
//!
//! ```text
//! stream_refine [--scale F] [--reps N] [--shards LIST] [--threads N|auto]
//!               [--json-dir D|none]
//! ```
//!
//! For each shard count the final EFO version is saved as a `.rdfm`
//! store, opened for streaming, and the maximal bisimulation is
//! computed shard-at-a-time (best of `reps`); the result is asserted
//! **bit-identical** (colors and rounds) to the resident path over the
//! stitched load. `BENCH_stream_refine.json` records, per shard count,
//! the streaming wall-ms and the engine's peak-resident proxy
//! (`peak_shard_bytes_sN` — the largest single shard's columns, the
//! only adjacency a worker ever holds) next to the resident path's
//! resident columns (`inram_resident_bytes` — the whole graph), so the
//! external-memory claim is a number, not prose: the ratio
//! `resident_ratio_sN` shrinks roughly like `1/N`. Streaming re-reads
//! every shard file once per refinement round, so its wall time is
//! expected to trail the resident path — the win is bounded residency,
//! not speed. The record embeds a `run_report` from one instrumented
//! streaming run, asserted consistent with the engine (round count and
//! peak-shard gauge match exactly). Exits non-zero if any
//! configuration diverges from the in-RAM partition.

use rdf_align::{Recorder, RefineEngine, Threads};
use rdf_bench::BenchRecord;
use rdf_datagen::{generate_efo, EfoConfig};
use rdf_store::{save_sharded, Store};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut reps = 3usize;
    let mut shards_list: Vec<usize> = vec![1, 2, 4, 8];
    let mut threads = Threads::Auto;
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
            "--shards" => {
                let list =
                    it.next().unwrap_or_else(|| die("--shards needs a list"));
                shards_list = list
                    .split(',')
                    .map(|v| match v.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => die("--shards needs positive integers"),
                    })
                    .collect();
                if shards_list.is_empty() {
                    die("--shards needs at least one count");
                }
            }
            "--threads" => {
                let v =
                    it.next().unwrap_or_else(|| die("--threads needs a value"));
                threads = Threads::parse(v)
                    .unwrap_or_else(|e| die(&e));
            }
            "--json-dir" => {
                let dir =
                    it.next().unwrap_or_else(|| die("--json-dir needs a path"));
                json_dir = (dir != "none").then(|| dir.clone());
            }
            "--help" | "-h" => {
                println!(
                    "usage: stream_refine [--scale F] [--reps N] \
                     [--shards LIST] [--threads N|auto] [--json-dir D|none]"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    let reps = reps.max(1);

    // Workload: the final version of the EFO-like dataset — the
    // largest single graph of the paper's §5.1 workload family, the
    // same graph shard_load measures.
    let ds = generate_efo(&EfoConfig::default().scaled(scale));
    let version = ds.versions.last().expect("dataset has versions");
    let nodes = version.graph.node_count();
    let triples = version.graph.triple_count();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "workload: EFO scale {scale}, final version: {nodes} nodes, \
         {triples} triples; machine has {cores} core(s)"
    );

    let dir = std::env::temp_dir()
        .join(format!("rdf-stream-refine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // In-RAM baseline: the whole grouped-CSR adjacency is resident
    // for the entire fixpoint. Its residency proxy mirrors the
    // streaming one: 4 bytes per offset, predicate and object entry.
    let g = version.graph.graph();
    let inram_resident =
        (4 * ((nodes + 1) + 2 * triples)) as f64;
    let mut inram_ms = f64::INFINITY;
    let mut engine = RefineEngine::new(threads);
    let baseline = engine.bisimulation(g);
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = engine.bisimulation(g);
        inram_ms = inram_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(out.partition.colors(), baseline.partition.colors());
    }
    println!(
        "  in-RAM: {inram_ms:.3} ms/fixpoint, {} classes in {} rounds, \
         {inram_resident:.0} resident column bytes",
        baseline.partition.num_colors(),
        baseline.rounds,
    );

    let mut record = BenchRecord::new("stream_refine", inram_ms)
        .param("scale", scale)
        .param("reps", reps)
        .param(
            "threads",
            match threads {
                Threads::Auto => "auto".to_string(),
                Threads::Fixed(n) => n.to_string(),
            },
        )
        .counts(nodes, triples)
        .metric("inram_ms", inram_ms)
        .metric("inram_resident_bytes", inram_resident)
        .metric("rounds", baseline.rounds as f64);

    let mut diverged = false;
    for &n in &shards_list {
        let manifest = dir.join(format!("g{n}.rdfm"));
        save_sharded(&manifest, &ds.vocab, &version.graph, n).unwrap();
        let store = Store::open(&manifest)
            .unwrap()
            .shards(Arc::new(Recorder::disabled()))
            .unwrap();
        let mut engine = RefineEngine::new(threads);
        let mut best = f64::INFINITY;
        let mut streamed = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let out = engine
                .bisimulation_shards(&store, store.labels())
                .expect("freshly written shards load");
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            streamed.get_or_insert(out);
        }
        let out = streamed.expect("at least one rep");
        if out.partition.colors() != baseline.partition.colors()
            || out.rounds != baseline.rounds
        {
            eprintln!(
                "stream_refine: {n}-shard streaming fixpoint DIVERGED \
                 from the resident path"
            );
            diverged = true;
        }
        let peak = engine.peak_shard_bytes() as f64;
        let ratio = peak / inram_resident;
        println!(
            "  shards {n}: {best:.3} ms/fixpoint, peak shard columns \
             {peak:.0} bytes ({ratio:.3}x of in-RAM residency)"
        );
        record = record
            .metric(&format!("stream_ms_s{n}"), best)
            .metric(&format!("peak_shard_bytes_s{n}"), peak)
            .metric(&format!("resident_ratio_s{n}"), ratio);
    }

    // One instrumented streaming run (last shard count), embedded as
    // the record's `run_report` — and cross-checked against the engine
    // so the trace and the BENCH numbers can never drift apart: the
    // per-round span count must equal the engine's round count and the
    // peak-shard gauge must equal `peak_shard_bytes()` exactly.
    let n = *shards_list.last().expect("non-empty shard list");
    let manifest = dir.join(format!("g{n}.rdfm"));
    let rec = Arc::new(Recorder::jsonl_writer(Box::new(std::io::sink())));
    let store = Store::open(&manifest)
        .unwrap()
        .shards(Arc::clone(&rec))
        .unwrap();
    let mut engine = RefineEngine::with_recorder(threads, Arc::clone(&rec));
    let out = engine
        .bisimulation_shards(&store, store.labels())
        .expect("traced rerun over freshly written shards");
    assert_eq!(
        out.partition.colors(),
        baseline.partition.colors(),
        "instrumented run must be bit-identical to the untraced one"
    );
    let peak = engine.peak_shard_bytes() as u64;
    drop(engine);
    drop(store);
    let report = rec
        .finish()
        .expect("sink recorder cannot fail on I/O")
        .expect("jsonl-mode recorder yields a report");
    let rounds_traced = report.span("refine.round").map_or(0, |s| s.count);
    assert_eq!(
        rounds_traced, out.rounds as u64,
        "per-round span count must equal the engine's round count"
    );
    assert_eq!(
        report.gauge("stream.peak_shard_bytes"),
        Some(peak),
        "traced peak-shard gauge must match the engine exactly"
    );
    record = record.param("trace_shards", n).with_report(report);

    if let Some(dir) = &json_dir {
        match record.write_to(dir) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("BENCH json not written: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    if diverged {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("stream_refine: {msg}");
    std::process::exit(2)
}
