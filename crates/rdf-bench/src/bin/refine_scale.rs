//! `refine_scale` — wall-clock scaling of the parallel refinement
//! engine across thread counts, on the scale-1.0 EFO dataset.
//!
//! ```text
//! refine_scale [--scale F] [--reps N] [--threads LIST] [--json-dir D|none]
//! ```
//!
//! Runs the Hybrid method (the heaviest refinement user: a deblank
//! fixpoint plus a hybrid fixpoint per alignment) through one
//! [`rdf_align::RefineEngine`] per thread count in `LIST` (default
//! `1,2,4,8`), asserts every thread count produces the bit-identical
//! partition, and writes `BENCH_refine_scale.json` with per-thread wall
//! times, the per-thread speedups, and an embedded `run_report` (the
//! aggregated trace of one instrumented baseline run). The `cores`
//! parameter records the machine's visible parallelism, and the
//! speedups go through [`BenchRecord::speedup`]'s honesty gate: on a
//! single-core machine they are emitted as `null` with a `caveat`
//! parameter instead of a meaningless number. Exits non-zero if any
//! thread count diverges from the single-thread partition.

use rdf_align::engine::RefineEngine;
use rdf_align::methods::hybrid_partition_with;
use rdf_align::{Recorder, Threads, MAX_THREADS};
use rdf_bench::BenchRecord;
use rdf_datagen::{generate_efo, EfoConfig};
use rdf_model::CombinedGraph;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut reps = 3usize;
    let mut threads_list: Vec<usize> = vec![1, 2, 4, 8];
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
            "--threads" => {
                let list =
                    it.next().unwrap_or_else(|| die("--threads needs a list"));
                threads_list = list
                    .split(',')
                    .map(|v| match Threads::parse(v) {
                        Ok(Threads::Fixed(n)) => n,
                        _ => die(&format!(
                            "--threads needs integers in 1..={}",
                            MAX_THREADS
                        )),
                    })
                    .collect();
                if threads_list.is_empty() {
                    die("--threads needs at least one count");
                }
            }
            "--json-dir" => {
                let dir =
                    it.next().unwrap_or_else(|| die("--json-dir needs a path"));
                json_dir = (dir != "none").then(|| dir.clone());
            }
            "--help" | "-h" => {
                println!(
                    "usage: refine_scale [--scale F] [--reps N] \
                     [--threads LIST] [--json-dir D|none]"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    let reps = reps.max(1);

    // Workload: versions 1 and 2 of the EFO-like dataset, combined —
    // the §5.1 alignment input whose refinement dominates end-to-end
    // wall time.
    let ds = generate_efo(&EfoConfig::default().scaled(scale));
    let combined = CombinedGraph::union(
        &ds.vocab,
        &ds.versions[0].graph,
        &ds.versions[1].graph,
    );
    let nodes = combined.graph().node_count();
    let triples = combined.graph().triple_count();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "workload: EFO scale {scale}, combined v1+v2: {nodes} nodes, \
         {triples} triples; machine has {cores} core(s)"
    );
    if cores == 1 {
        println!(
            "  note: single-core machine — multi-thread runs measure \
             engine overhead only; speedup > 1 needs cores > 1"
        );
    }

    // `cores` rides along automatically on every BenchRecord.
    let mut record = BenchRecord::new("refine_scale", 0.0)
        .param("scale", scale)
        .param("reps", reps)
        .param("method", "hybrid")
        .counts(nodes, triples);

    let mut baseline_colors: Option<Vec<rdf_align::ColorId>> = None;
    let mut ms_of_one = None;
    let mut diverged = false;
    for &t in &threads_list {
        let mut engine = RefineEngine::new(Threads::Fixed(t));
        // Warm-up rep (fills engine scratch, faults pages), then timed
        // best-of-reps: scaling is about the steady state.
        let warm = hybrid_partition_with(&combined, &mut engine);
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let out = hybrid_partition_with(&combined, &mut engine);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                out.partition.colors(),
                warm.partition.colors(),
                "engine must be deterministic run to run"
            );
        }
        match &baseline_colors {
            None => {
                baseline_colors = Some(warm.partition.colors().to_vec());
                ms_of_one = Some(best);
            }
            Some(base) => {
                if base.as_slice() != warm.partition.colors() {
                    eprintln!(
                        "refine_scale: {t}-thread partition DIVERGED \
                         from {}-thread baseline",
                        threads_list[0]
                    );
                    diverged = true;
                }
            }
        }
        println!(
            "  threads {t}: {best:.3} ms/align (best of {reps}), \
             {} classes",
            warm.partition.num_colors()
        );
        record = record.metric(&format!("hybrid_ms_t{t}"), best);
        if t == threads_list[0] {
            record.wall_ms = best;
        }
        if let Some(base_ms) = ms_of_one {
            // Thread-count speedups go through the honesty gate: on a
            // single-core machine they are stamped `null` + caveat.
            record = record.speedup(&format!("speedup_t{t}"), base_ms / best);
            if t != threads_list[0] {
                println!("    speedup vs t{}: {:.2}x", threads_list[0], base_ms / best);
            }
        }
    }

    // One extra instrumented run at the baseline thread count: the
    // BENCH json carries the phase breakdown (per-round spans with
    // their sig_us/canon_us split), not just the headline wall time.
    let rec = Arc::new(Recorder::jsonl_writer(Box::new(std::io::sink())));
    let mut engine = RefineEngine::with_recorder(
        Threads::Fixed(threads_list[0]),
        Arc::clone(&rec),
    );
    let _ = hybrid_partition_with(&combined, &mut engine);
    drop(engine);
    match rec.finish() {
        Ok(Some(report)) => record = record.with_report(report),
        Ok(None) => {}
        Err(e) => eprintln!("refine_scale: trace not embedded: {e}"),
    }

    if let Some(dir) = &json_dir {
        match record.write_to(dir) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("BENCH json not written: {e}"),
        }
    }

    if diverged {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("refine_scale: {msg}");
    std::process::exit(2)
}
