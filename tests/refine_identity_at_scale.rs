//! The engines' bit-identity contract at dataset scale, not just on
//! proptest-sized graphs: on generated EFO (scale 1, v1→v2) and GtoPdb
//! (the `pipeline_datasets.rs` size, v3→v4) pairs, the engine at 1, 2
//! and 3 threads, on resident columns and over 4 range shards, must
//! give the sequential reference's dense colors for the maximal
//! bisimulation and for both Deblank and Hybrid stages.

use rdf_align::methods::{
    blank_out, deblank_partition_with, hybrid_from_with,
    hybrid_partition_with,
};
use rdf_align::partition::unaligned_non_literals;
use rdf_align::refine::{
    label_partition, reference_refine_fixpoint_mask, RefineOutcome,
};
use rdf_align::{RefineEngine, Threads};
use rdf_datagen::{
    generate_efo, generate_gtopdb, EfoConfig, EvolvingDataset, GtopdbConfig,
};
use rdf_model::{CombinedGraph, GraphShards};

const THREAD_COUNTS: [usize; 3] = [1, 2, 3];
const SHARDS: usize = 4;

/// Versions `from` and `to` (1-based, as `rdf gen` names them) combined.
fn pair(ds: &EvolvingDataset, from: usize, to: usize) -> CombinedGraph {
    CombinedGraph::union(
        &ds.vocab,
        &ds.versions[from - 1].graph,
        &ds.versions[to - 1].graph,
    )
}

fn assert_same(what: &str, got: &RefineOutcome, want: &RefineOutcome) {
    assert!(
        got.partition.colors() == want.partition.colors(),
        "{what}: colors differ"
    );
    assert_eq!(got.rounds, want.rounds, "{what}: rounds differ");
}

fn assert_engines_match_reference(c: &CombinedGraph) {
    let g = c.graph();
    let all = vec![true; g.node_count()];
    let blanks: Vec<bool> = g.nodes().map(|n| g.is_blank(n)).collect();
    let bisim = reference_refine_fixpoint_mask(g, label_partition(g), &all);
    let deblank =
        reference_refine_fixpoint_mask(g, label_partition(g), &blanks);
    let unaligned = unaligned_non_literals(&deblank.partition, c);
    let mut in_x = vec![false; g.node_count()];
    for n in &unaligned {
        in_x[n.index()] = true;
    }
    let blanked = blank_out(&deblank.partition, &unaligned);
    let hybrid = reference_refine_fixpoint_mask(g, blanked, &in_x);
    assert!(
        bisim.partition.num_colors() > 1000,
        "graph too small to mean anything"
    );

    let shards = GraphShards::chunked(g, SHARDS);
    for t in THREAD_COUNTS {
        let mut engine = RefineEngine::new(Threads::Fixed(t));
        assert_same(
            &format!("bisimulation t{t}"),
            &engine.bisimulation(g),
            &bisim,
        );
        let d = deblank_partition_with(c, &mut engine);
        assert_same(&format!("deblank t{t}"), &d, &deblank);
        let h = hybrid_from_with(c, d.partition, &mut engine);
        let h = RefineOutcome {
            partition: h.partition,
            rounds: h.rounds,
        };
        assert_same(&format!("hybrid t{t}"), &h, &hybrid);

        let mut streaming = RefineEngine::new(Threads::Fixed(t));
        let b = streaming
            .bisimulation_shards(&shards, g.labels_raw())
            .expect("in-memory shards");
        assert_same(&format!("streaming bisimulation t{t}"), &b, &bisim);
        let d = streaming
            .refine_fixpoint_shards(&shards, label_partition(g), &blanks)
            .expect("in-memory shards");
        assert_same(&format!("streaming deblank t{t}"), &d, &deblank);
        streaming.set_stream_shards(Some(SHARDS));
        let h = hybrid_partition_with(c, &mut streaming);
        let h = RefineOutcome {
            partition: h.partition,
            rounds: h.rounds,
        };
        assert_same(&format!("streaming hybrid t{t}"), &h, &hybrid);
    }
}

#[test]
fn efo_scale_1_engines_match_reference() {
    let ds = generate_efo(&EfoConfig::default());
    assert_engines_match_reference(&pair(&ds, 1, 2));
}

#[test]
fn gtopdb_v3_v4_engines_match_reference() {
    let ds = generate_gtopdb(&GtopdbConfig {
        ligands: 60,
        ..GtopdbConfig::default()
    });
    assert_engines_match_reference(&pair(&ds, 3, 4));
}
