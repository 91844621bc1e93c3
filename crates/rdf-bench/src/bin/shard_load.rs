//! `shard_load` — wall-clock of loading a sharded `.rdfm` store at
//! several shard counts against the single-file `.rdfb` load, on the
//! scale-1.0 EFO dataset.
//!
//! ```text
//! shard_load [--scale F] [--reps N] [--shards LIST] [--json-dir D|none]
//! ```
//!
//! Writes every store layout into a scratch directory, loads each from
//! disk (best of `reps`), asserts every sharded load is **bit-identical**
//! to the single-file load (same labels, kinds, triples), and writes
//! `BENCH_shard_load.json` with per-shard-count wall-ms, speedups and
//! an embedded `run_report` (per-shard load spans with bytes and CRC
//! time). The `cores` parameter records the machine's visible
//! parallelism, and the speedups go through [`BenchRecord::speedup`]'s
//! honesty gate — the concurrent shard load can only beat the single
//! file when `cores > 1`, so on a single-core machine they are emitted
//! as `null` with a `caveat` parameter. Exits non-zero if any shard
//! count diverges from the single-file load.

use rdf_align::{Recorder, Threads};
use rdf_bench::BenchRecord;
use rdf_datagen::{generate_efo, EfoConfig};
use rdf_model::RdfGraph;
use rdf_store::{save_graph, save_sharded, Store};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut reps = 5usize;
    let mut shards_list: Vec<usize> = vec![1, 2, 4, 8];
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
            "--json-dir" => {
                let dir =
                    it.next().unwrap_or_else(|| die("--json-dir needs a path"));
                json_dir = (dir != "none").then(|| dir.clone());
            }
            "--help" | "-h" => {
                println!(
                    "usage: shard_load [--scale F] [--reps N] \
                     [--shards LIST] [--json-dir D|none]"
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
    let nodes = version.graph.node_count();
    let triples = version.graph.triple_count();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "workload: EFO scale {scale}, final version: {nodes} nodes, \
         {triples} triples; machine has {cores} core(s)"
    );
    if cores == 1 {
        println!(
            "  note: single-core machine — the concurrent shard load \
             measures gang overhead only; speedup > 1 needs cores > 1"
        );
    }

    let dir = std::env::temp_dir()
        .join(format!("rdf-shard-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let single_path = dir.join("g.rdfb");
    save_graph(&single_path, &ds.vocab, &version.graph).unwrap();
    let single_bytes =
        std::fs::metadata(&single_path).map(|m| m.len()).unwrap_or(0);

    // Single-file baseline: open + decode from disk, best of reps.
    let mut baseline: Option<RdfGraph> = None;
    let mut single_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (_, g) = Store::open(&single_path)
            .unwrap()
            .graph(Threads::Auto, &Recorder::disabled())
            .unwrap();
        single_ms = single_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        baseline.get_or_insert(g);
    }
    let baseline = baseline.expect("at least one rep");
    println!("  single file: {single_ms:.3} ms/load ({single_bytes} bytes)");

    // `cores` rides along automatically on every BenchRecord.
    let mut record = BenchRecord::new("shard_load", single_ms)
        .param("scale", scale)
        .param("reps", reps)
        .param("threads", "auto")
        .counts(nodes, triples)
        .metric("single_ms", single_ms)
        .metric("single_bytes", single_bytes as f64);

    let mut diverged = false;
    for &n in &shards_list {
        let manifest = dir.join(format!("g{n}.rdfm"));
        let paths =
            save_sharded(&manifest, &ds.vocab, &version.graph, n).unwrap();
        let total_bytes: u64 = paths
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        let mut best = f64::INFINITY;
        let mut loaded: Option<RdfGraph> = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let (_, g) = Store::open(&manifest)
                .unwrap()
                .graph(Threads::Auto, &Recorder::disabled())
                .unwrap();
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            loaded.get_or_insert(g);
        }
        let g = loaded.expect("at least one rep");
        if g.graph().triples() != baseline.graph().triples()
            || g.graph().labels_raw() != baseline.graph().labels_raw()
            || g.graph().kinds_raw() != baseline.graph().kinds_raw()
        {
            eprintln!(
                "shard_load: {n}-shard load DIVERGED from the \
                 single-file load"
            );
            diverged = true;
        }
        let speedup = single_ms / best;
        println!(
            "  shards {n}: {best:.3} ms/load (best of {reps}), \
             {total_bytes} bytes, {speedup:.2}x vs single file"
        );
        record = record
            .metric(&format!("sharded_ms_s{n}"), best)
            // Parallel-load speedups go through the honesty gate: on a
            // single-core machine they are stamped `null` + caveat.
            .speedup(&format!("speedup_s{n}"), speedup);
    }

    // One instrumented load of the last shard count so the BENCH json
    // carries per-shard load spans (bytes, CRC time) alongside the
    // headline wall times.
    let n = *shards_list.last().expect("non-empty shard list");
    let rec = Recorder::jsonl_writer(Box::new(std::io::sink()));
    let traced = Store::open(dir.join(format!("g{n}.rdfm")))
        .unwrap()
        .graph(Threads::Auto, &rec);
    match traced {
        Err(e) => eprintln!("shard_load: trace not embedded: {e}"),
        Ok(_) => match rec.finish() {
            Ok(Some(report)) => {
                record = record.param("trace_shards", n).with_report(report);
            }
            Ok(None) => {}
            Err(e) => eprintln!("shard_load: trace not embedded: {e}"),
        },
    }

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
    eprintln!("shard_load: {msg}");
    std::process::exit(2)
}
