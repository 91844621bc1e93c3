//! The parallel engine must be *indistinguishable* from the sequential
//! reference: at 1, 2 and 4 threads it must produce partitions with the
//! same dense color vectors — not merely equivalent partitions — for
//! random version pairs, across the Trivial/Deblank/Hybrid method
//! family, and it must be deterministic run to run at a fixed thread
//! count. This is the determinism guarantee the CLI's
//! `--threads 1` vs `--threads 4` CI diff also checks end to end.

use proptest::prelude::*;
use rdf_align::engine::RefineEngine;
use rdf_align::methods::{
    blank_out, deblank_partition_with, hybrid_from_with,
    hybrid_partition_with, trivial_partition,
};
use rdf_align::partition::unaligned_non_literals;
use rdf_align::refine::{
    label_partition, reference_refine_fixpoint_mask, RefineOutcome,
};
use rdf_align::variants::{
    context_refine_fixpoint_with, key_restricted_fixpoint_with, KeySpec,
};
use rdf_align::Threads;
use rdf_model::{CombinedGraph, NodeId, RdfGraph, RdfGraphBuilder, Vocab};

/// A random pair of graph versions sharing a vocabulary: overlapping
/// URI/blank/literal pools so some nodes align, some rename, some churn.
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

/// Sequential-reference Deblank: the method's definition run through
/// [`reference_refine_fixpoint_mask`] instead of the engine.
fn reference_deblank(combined: &CombinedGraph) -> RefineOutcome {
    let g = combined.graph();
    let in_x: Vec<bool> = g.nodes().map(|n| g.is_blank(n)).collect();
    reference_refine_fixpoint_mask(g, label_partition(g), &in_x)
}

/// Sequential-reference Hybrid from a given base partition.
fn reference_hybrid_from(
    combined: &CombinedGraph,
    base: rdf_align::Partition,
) -> RefineOutcome {
    let g = combined.graph();
    let unaligned = unaligned_non_literals(&base, combined);
    let blanked = blank_out(&base, &unaligned);
    let mut in_x = vec![false; g.node_count()];
    for &n in &unaligned {
        in_x[n.index()] = true;
    }
    reference_refine_fixpoint_mask(g, blanked, &in_x)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The §6 variants' usual input: the unaligned non-literals of the
/// label partition, blanked out, refined as `X`.
fn hybrid_input(
    combined: &CombinedGraph,
) -> (rdf_align::Partition, Vec<NodeId>) {
    let base = label_partition(combined.graph());
    let unaligned = unaligned_non_literals(&base, combined);
    (blank_out(&base, &unaligned), unaligned)
}

/// Run a §6 variant at every thread count and require the 1-thread
/// colors and rounds from all of them. The variants have no sequential
/// reference, so the 1-thread engine is the baseline.
fn assert_thread_identity(
    run: impl Fn(&mut RefineEngine) -> RefineOutcome,
) -> Result<(), String> {
    let base = run(&mut RefineEngine::new(Threads::Fixed(1)));
    for t in THREAD_COUNTS {
        let out = run(&mut RefineEngine::new(Threads::Fixed(t)));
        prop_assert_eq!(out.partition.colors(), base.partition.colors());
        prop_assert_eq!(out.rounds, base.rounds);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full bisimulation: engine at every thread count == reference,
    /// same dense colors and same round count.
    #[test]
    fn bisimulation_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let g = c.graph();
        let all = vec![true; g.node_count()];
        let reference =
            reference_refine_fixpoint_mask(g, label_partition(g), &all);
        for t in THREAD_COUNTS {
            let out = RefineEngine::new(Threads::Fixed(t)).bisimulation(g);
            prop_assert_eq!(
                out.partition.colors(),
                reference.partition.colors()
            );
            prop_assert_eq!(out.rounds, reference.rounds);
        }
    }

    /// Deblank: engine at every thread count == sequential reference.
    #[test]
    fn deblank_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let reference = reference_deblank(&c);
        for t in THREAD_COUNTS {
            let mut engine = RefineEngine::new(Threads::Fixed(t));
            let out = deblank_partition_with(&c, &mut engine);
            prop_assert_eq!(
                out.partition.colors(),
                reference.partition.colors()
            );
        }
    }

    /// Hybrid (from Deblank *and* from Trivial, per §3.4): engine at
    /// every thread count == sequential reference, dense colors equal.
    #[test]
    fn hybrid_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let ref_deblank = reference_deblank(&c).partition;
        let ref_hybrid = reference_hybrid_from(&c, ref_deblank);
        let ref_via_trivial =
            reference_hybrid_from(&c, trivial_partition(&c));
        for t in THREAD_COUNTS {
            let mut engine = RefineEngine::new(Threads::Fixed(t));
            let out = hybrid_partition_with(&c, &mut engine);
            prop_assert_eq!(
                out.partition.colors(),
                ref_hybrid.partition.colors()
            );
            // The Trivial-seeded hybrid exercises a different initial
            // partition through the same engine scratch (reuse!).
            let via_trivial =
                hybrid_from_with(&c, trivial_partition(&c), &mut engine);
            prop_assert_eq!(
                via_trivial.partition.colors(),
                ref_via_trivial.partition.colors()
            );
        }
    }

    /// Determinism: the same input refined twice at 4 threads — by a
    /// fresh engine and by a reused one — yields identical colors.
    #[test]
    fn four_threads_is_deterministic((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let mut engine = RefineEngine::new(Threads::Fixed(4));
        let first = hybrid_partition_with(&c, &mut engine);
        // Same engine again (scratch warm), then a fresh engine.
        let second = hybrid_partition_with(&c, &mut engine);
        let fresh = hybrid_partition_with(
            &c,
            &mut RefineEngine::new(Threads::Fixed(4)),
        );
        prop_assert_eq!(
            first.partition.colors(),
            second.partition.colors()
        );
        prop_assert_eq!(
            first.partition.colors(),
            fresh.partition.colors()
        );
        prop_assert_eq!(first.rounds, second.rounds);
    }

    /// §6 context refinement (out- and in-neighbourhoods): identical
    /// colors and rounds at every thread count.
    #[test]
    fn context_refinement_identical_across_threads(
        (vocab, g1, g2) in arb_versions()
    ) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let (initial, x) = hybrid_input(&c);
        assert_thread_identity(|engine| {
            context_refine_fixpoint_with(c.graph(), initial.clone(), &x, engine)
        })?;
    }

    /// §6 key-restricted refinement (only `p0`/`p1` edges count):
    /// identical colors and rounds at every thread count.
    #[test]
    fn key_restricted_refinement_identical_across_threads(
        (vocab, g1, g2) in arb_versions()
    ) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let key = KeySpec::new(
            ["p0", "p1"].into_iter().filter_map(|p| vocab.find_uri(p)),
        );
        let (initial, x) = hybrid_input(&c);
        assert_thread_identity(|engine| {
            key_restricted_fixpoint_with(
                c.graph(),
                &key,
                initial.clone(),
                &x,
                engine,
            )
        })?;
    }
}
