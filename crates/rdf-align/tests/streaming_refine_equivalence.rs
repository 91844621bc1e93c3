//! The streaming refinement path must be *invisible* in every output:
//! shard-at-a-time rounds over a [`rdf_model::GraphShards`]
//! decomposition or straight from on-disk `.rdfm` shard files produce
//! the bit-identical partitions (same dense colors, same round counts)
//! the resident path of [`rdf_align::RefineEngine`] produces, for
//! every shard count {1, 2, 4, 8} × thread count {1, 2, 4} — the
//! acceptance matrix of the external-memory step. Corruption in any
//! shard file surfaces as the same typed store errors the stitched load
//! reports, at every thread count.

use proptest::prelude::*;
use rdf_align::methods::blank_out;
use rdf_align::partition::unaligned_non_literals;
use rdf_align::pipeline::{align_with, Aligned, Method};
use rdf_align::refine::{label_partition, reference_refine_fixpoint_mask};
use rdf_align::{RefineEngine, StreamError, Threads};
use rdf_model::{
    CombinedGraph, RdfGraph, RdfGraphBuilder, ShardColumns,
    ShardColumnsSource, Triple, TripleGraph, Vocab,
};
use std::convert::Infallible;
use rdf_obs::Recorder;
use rdf_store::{save_sharded, Store, StoreError};
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdf-align-streaming-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A random pair of graph versions sharing a vocabulary (same shape as
/// the parallel-refine identity suite).
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

/// Align through a fresh engine on `threads`, streaming through
/// `shards` range shards when given.
fn align_on(
    (vocab, g1, g2): (&Vocab, &RdfGraph, &RdfGraph),
    method: Method,
    threads: usize,
    shards: Option<usize>,
) -> Aligned {
    let mut engine = RefineEngine::new(Threads::Fixed(threads));
    engine.set_stream_shards(shards);
    align_with(vocab, g1, g2, method, &mut engine)
}

/// A source shaped like a hash-partitioned `.rdfm` store: shard `k`
/// holds the subjects ≡ k (mod `shards`), so every shard interleaves
/// with every other across the whole node range.
struct ModShards<'g> {
    graph: &'g TripleGraph,
    shards: usize,
}

impl ShardColumnsSource for ModShards<'_> {
    type Error = Infallible;

    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn load_shard(&self, k: usize) -> Result<ShardColumns, Infallible> {
        let run: Vec<Triple> = self
            .graph
            .triples()
            .iter()
            .copied()
            .filter(|t| t.s.index() % self.shards == k)
            .collect();
        Ok(ShardColumns::from_sorted_triples(&run))
    }
}

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 3] = [1, 2, 4];
const METHODS: [Method; 3] =
    [Method::Trivial, Method::Deblank, Method::Hybrid];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming alignment == in-RAM alignment, shard × thread ×
    /// method: identical dense colors and §5 metrics.
    #[test]
    fn streaming_alignment_matches_in_ram(
        (vocab, g1, g2) in arb_versions()
    ) {
        for method in METHODS {
            let base = align_on((&vocab, &g1, &g2), method, 1, None);
            for shards in SHARDS {
                for t in THREADS {
                    let streamed = align_on(
                        (&vocab, &g1, &g2), method, t, Some(shards));
                    prop_assert_eq!(
                        streamed.partition().colors(),
                        base.partition().colors()
                    );
                    prop_assert_eq!(
                        streamed.edges.ratio(), base.edges.ratio());
                    prop_assert_eq!(
                        streamed.edges.aligned_instances(),
                        base.edges.aligned_instances()
                    );
                    prop_assert_eq!(
                        streamed.nodes.aligned_classes,
                        base.nodes.aligned_classes
                    );
                    prop_assert_eq!(&streamed.unaligned, &base.unaligned);
                }
            }
        }
    }

    /// Maximal bisimulation streamed straight from on-disk shard files
    /// == the in-RAM engine over the stitched load, shard × thread;
    /// and the engine's residency proxy is exactly the largest shard's
    /// columns, never the whole graph's.
    #[test]
    fn store_streaming_bisimulation_matches_stitched_load(
        (vocab, g1, _g2) in arb_versions()
    ) {
        let dir = tmp();
        for shards in SHARDS {
            let manifest = dir.join(format!("g{shards}.rdfm"));
            save_sharded(&manifest, &vocab, &g1, shards).unwrap();
            let reader = Store::open(&manifest).unwrap();

            // In-RAM baseline over the stitched load.
            let (_, loaded) = reader
                .graph(Threads::Fixed(1), &Recorder::disabled())
                .unwrap();
            let base = RefineEngine::new(Threads::Fixed(1))
                .bisimulation(loaded.graph());

            let store =
                reader.shards(Arc::new(Recorder::disabled())).unwrap();
            prop_assert_eq!(
                store.labels(), loaded.graph().labels_raw());
            let max_shard_bytes = (0..store.shard_count())
                .map(|k| store.load_shard(k).unwrap().resident_bytes())
                .max()
                .unwrap_or(0);
            for t in THREADS {
                let mut engine = RefineEngine::new(Threads::Fixed(t));
                let out = engine
                    .bisimulation_shards(&store, store.labels())
                    .unwrap();
                prop_assert_eq!(
                    out.partition.colors(),
                    base.partition.colors()
                );
                prop_assert_eq!(out.rounds, base.rounds);
                // Residency proxy: bounded by the largest single
                // shard, not the graph.
                prop_assert_eq!(
                    engine.peak_shard_bytes(), max_shard_bytes);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interleaved (mod-s) shards under the three masks the methods
    /// refine with — all nodes, the blanks, and `UN(λ_Deblank)` from
    /// the blanked Deblank partition — give the sequential reference's
    /// colors and round count, shard × thread.
    #[test]
    fn interleaved_shards_match_reference_under_partial_masks(
        (vocab, g1, g2) in arb_versions()
    ) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let g = c.graph();
        let n = g.node_count();
        let blanks: Vec<bool> = g.nodes().map(|v| g.is_blank(v)).collect();
        let deblank =
            reference_refine_fixpoint_mask(g, label_partition(g), &blanks);
        let unaligned = unaligned_non_literals(&deblank.partition, &c);
        let mut un = vec![false; n];
        for v in &unaligned {
            un[v.index()] = true;
        }
        let masks = [
            (label_partition(g), vec![true; n]),
            (label_partition(g), blanks),
            (blank_out(&deblank.partition, &unaligned), un),
        ];
        for (initial, in_x) in &masks {
            let want =
                reference_refine_fixpoint_mask(g, initial.clone(), in_x);
            for shards in [1usize, 2, 3, 8] {
                let src = ModShards { graph: g, shards };
                for t in THREADS {
                    let got = RefineEngine::new(Threads::Fixed(t))
                        .refine_fixpoint_shards(&src, initial.clone(), in_x)
                        .expect("mod-s shards partition the subjects");
                    prop_assert_eq!(
                        got.partition.colors(),
                        want.partition.colors()
                    );
                    prop_assert_eq!(got.rounds, want.rounds);
                }
            }
        }
    }
}

/// Shard corruption surfaces as the same typed [`StoreError`]s the
/// stitched load reports — and deterministically. `Store::shards` is
/// the single checksum pass of a streaming run: pre-existing
/// corruption fails the open itself, while damage inflicted *after*
/// the open (whose checks the trusted per-round re-reads skip) still
/// surfaces as a typed, shard-naming framing error, with the
/// lowest-indexed failing shard winning at every thread count.
#[test]
fn corrupt_shards_fail_with_typed_errors_at_every_thread_count() {
    let mut vocab = Vocab::new();
    let g = {
        let mut b = RdfGraphBuilder::new(&mut vocab);
        for i in 0..24 {
            b.uul(&format!("s{i}"), &format!("p{}", i % 3), "v");
            b.uub(&format!("s{i}"), "link", &format!("b{}", i % 5));
        }
        b.finish()
    };
    let dir = tmp();
    let manifest = dir.join("g.rdfm");
    let paths = save_sharded(&manifest, &vocab, &g, 4).unwrap();
    // Open while the files are intact: this is the one-time validation
    // pass that later rounds trust.
    let store = Store::open(&manifest)
        .unwrap()
        .shards(Arc::new(Recorder::disabled()))
        .unwrap();

    // Flip one byte in shards 1 and 3. A *fresh* open runs the
    // checksum pass and must report shard 1 (deterministic
    // lowest-index error), before any refinement work starts.
    for shard in [&paths[2], &paths[4]] {
        let mut bytes = std::fs::read(shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(shard, bytes).unwrap();
    }
    let err = Store::open(&manifest)
        .unwrap()
        .shards(Arc::new(Recorder::disabled()))
        .unwrap_err();
    match err {
        StoreError::ShardChecksumMismatch { ref shard, .. } => {
            assert!(
                shard.contains("shard-1"),
                "expected shard 1's error, got {shard:?}"
            );
        }
        other => panic!("unexpected open error {other:?}"),
    }

    // The already-open store re-reads shards trusted (no checksum
    // pass), but framing and truncation checks remain: gut shard 1 and
    // its error — naming the file — wins at every thread count.
    let bytes = std::fs::read(&paths[2]).unwrap();
    std::fs::write(&paths[2], &bytes[..bytes.len() / 2]).unwrap();
    for t in [1usize, 2, 4] {
        let err = RefineEngine::new(Threads::Fixed(t))
            .bisimulation_shards(&store, store.labels())
            .unwrap_err();
        match err {
            StreamError::Source(StoreError::InShard {
                ref shard, ..
            }) => {
                assert!(
                    shard.contains("shard-1"),
                    "threads={t}: expected shard 1's error, got {shard:?}"
                );
            }
            other => panic!("threads={t}: unexpected error {other:?}"),
        }
    }

    // A missing shard is typed too.
    std::fs::remove_file(&paths[2]).unwrap();
    let err = RefineEngine::new(Threads::Fixed(2))
        .bisimulation_shards(&store, store.labels())
        .unwrap_err();
    assert!(
        matches!(
            err,
            StreamError::Source(StoreError::MissingShard { ref path })
                if path.contains("shard-1")
        ),
        "unexpected error {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
