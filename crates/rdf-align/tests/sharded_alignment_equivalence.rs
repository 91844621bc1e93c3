//! The sharded load path must be *invisible* to alignment: running
//! `pipeline::align` over graphs loaded from a sharded store produces
//! the same report — identical dense colors, edge/node metrics and
//! unaligned sets — as over the unsharded store, for Trivial, Deblank
//! and Hybrid at 1 and 4 threads. This extends the PR 3 thread-identity
//! suite to the new load path: shard count and thread count are both
//! pure wall-clock knobs.

use proptest::prelude::*;
use rdf_align::pipeline::{align_with, Method};
use rdf_align::{RefineEngine, Threads};
use rdf_model::{rebase_into, RdfGraph, RdfGraphBuilder, Vocab};
use rdf_obs::Recorder;
use rdf_store::{save_graph, save_sharded, Store};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdf-align-sharded-{}-{}",
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
    (1usize..20, 1usize..20, any::<u64>()).prop_map(|(m1, m2, seed)| {
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

/// Load two stores the way the CLI does: each into its own store
/// dictionary, then rebased into one shared session vocabulary.
fn load_pair(
    load: impl Fn(&str) -> (Vocab, RdfGraph),
) -> (Vocab, RdfGraph, RdfGraph) {
    let mut session = Vocab::new();
    let (v1, g1) = load("v1");
    let (v2, g2) = load("v2");
    let g1 = rebase_into(&mut session, &v1, &g1);
    let g2 = rebase_into(&mut session, &v2, &g2);
    (session, g1, g2)
}

const METHODS: [Method; 3] =
    [Method::Trivial, Method::Deblank, Method::Hybrid];
const THREADS: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Align(sharded load) == Align(unsharded load), method × threads.
    #[test]
    fn sharded_and_unsharded_loads_align_identically(
        (vocab, g1, g2) in arb_versions()
    ) {
        let dir = tmp();
        for (name, g) in [("v1", &g1), ("v2", &g2)] {
            save_graph(dir.join(format!("{name}.rdfb")), &vocab, g)
                .unwrap();
            save_sharded(
                dir.join(format!("{name}.rdfm")),
                &vocab,
                g,
                4,
            )
            .unwrap();
        }

        let (sv, s1, s2) = load_pair(|name| {
            Store::open(dir.join(format!("{name}.rdfb")))
                .unwrap()
                .graph(Threads::Fixed(1), &Recorder::disabled())
                .unwrap()
        });
        for t in THREADS {
            let (hv, h1, h2) = load_pair(|name| {
                Store::open(dir.join(format!("{name}.rdfm")))
                    .unwrap()
                    .graph(Threads::Fixed(t), &Recorder::disabled())
                    .unwrap()
            });
            // The loads themselves are bit-identical…
            prop_assert_eq!(h1.graph().triples(), s1.graph().triples());
            prop_assert_eq!(h2.graph().triples(), s2.graph().triples());
            prop_assert_eq!(
                h1.graph().labels_raw(),
                s1.graph().labels_raw()
            );
            prop_assert_eq!(hv.len(), sv.len());
            // …and so is every alignment report built on them.
            for method in METHODS {
                let a = align_with(
                    &sv, &s1, &s2, method,
                    &mut RefineEngine::new(Threads::Fixed(t)),
                );
                let b = align_with(
                    &hv, &h1, &h2, method,
                    &mut RefineEngine::new(Threads::Fixed(t)),
                );
                prop_assert_eq!(
                    a.partition().colors(),
                    b.partition().colors()
                );
                prop_assert_eq!(a.edges.ratio(), b.edges.ratio());
                prop_assert_eq!(
                    a.edges.aligned_instances(),
                    b.edges.aligned_instances()
                );
                prop_assert_eq!(
                    a.nodes.aligned_classes,
                    b.nodes.aligned_classes
                );
                prop_assert_eq!(&a.unaligned, &b.unaligned);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
