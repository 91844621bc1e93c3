//! Property suite for the sharded store: for random graphs and shard
//! counts 1/2/3/8, `load(save_sharded(g, N)) == g` term-for-term, the
//! stitched dense arrays are **byte-identical** to the single-file
//! load for every shard × thread combination, and every manifest-path
//! corruption (truncation, missing shard, shard CRC mismatch, count
//! disagreement, duplicate entries) fails with a typed [`StoreError`]
//! — never a panic — mirroring the PR 2 single-file corruption tests.

use proptest::prelude::*;
use rdf_model::{LabelRef, NodeId, RdfGraph, Term, Vocab};
use rdf_obs::Recorder;
use rdf_par::Threads;
use rdf_store::{
    checksum::crc32,
    container::HEADER_LEN,
    graph_to_bytes, save_sharded,
    varint::{read_varint, write_varint},
    Container, ContainerWriter, Store, StoreError, KIND_MANIFEST, TAG_SHRD,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Awkward characters exercising literal and IRI escaping.
const TRICKY: &[&str] = &[
    "", " ", "\"", "\\", "\n", "café", "😀", "a b", "x\\\"y", "<angle>",
];

/// Unique-per-call scratch dir (proptest shrinkers re-enter cases).
fn tmp(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdf-sharded-rt-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn term_of(g: &RdfGraph, vocab: &Vocab, n: NodeId) -> Term {
    match vocab.resolve(g.graph().label(n)) {
        LabelRef::Uri(u) => Term::uri(u),
        LabelRef::Literal(l) => Term::literal(l),
        LabelRef::Blank => Term::blank(
            g.blank_name(n)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("b{}", n.0)),
        ),
    }
}

fn term_triples(g: &RdfGraph, vocab: &Vocab) -> Vec<(Term, Term, Term)> {
    let mut out: Vec<(Term, Term, Term)> = g
        .graph()
        .triples()
        .iter()
        .map(|t| {
            (
                term_of(g, vocab, t.s),
                term_of(g, vocab, t.p),
                term_of(g, vocab, t.o),
            )
        })
        .collect();
    out.sort();
    out
}

/// A random RDF graph mixing URI/blank subjects and URI/literal/blank
/// objects (same shape as the single-file suite).
fn arb_rdf_graph() -> impl Strategy<Value = (Vocab, RdfGraph)> {
    (1usize..28, any::<u64>()).prop_map(|(m, seed)| {
        let mut vocab = Vocab::new();
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..m {
            let s_uri = format!("http://e.org/s{}", next() % 7);
            let s_blank = format!("bn{}", next() % 5);
            let p = format!("http://e.org/p{}", next() % 4);
            let tricky = TRICKY[(next() % TRICKY.len() as u64) as usize];
            let lit = format!("v{} {tricky}", next() % 9);
            let o_blank = format!("bn{}", next() % 5);
            let o_uri = format!("http://e.org/o-{}", next() % 8);
            match next() % 5 {
                0 => b.uuu(&s_uri, &p, &o_uri),
                1 => b.uul(&s_uri, &p, &lit),
                2 => b.uub(&s_uri, &p, &o_blank),
                3 => b.bul(&s_blank, &p, &lit),
                _ => b.bub(&s_blank, &p, &o_blank),
            }
        }
        let g = b.finish();
        (vocab, g)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `load(save_sharded(g, N))` reconstructs `g` term-for-term, and
    /// the stitched graph is *byte-identical* — same labels, kinds,
    /// triples, CSR adjacency and dictionary — to the single-file load
    /// of the same graph, for every shard count × thread count.
    #[test]
    fn sharded_load_is_identity_and_matches_single_file(
        (vocab, g) in arb_rdf_graph()
    ) {
        let (sv, sg) = Store::from_bytes(&graph_to_bytes(&vocab, &g).unwrap())
            .unwrap()
            .graph(Threads::Fixed(1), &Recorder::disabled())
            .unwrap();
        let dir = tmp("prop");
        for shards in SHARD_COUNTS {
            let manifest = dir.join(format!("g{shards}.rdfm"));
            save_sharded(&manifest, &vocab, &g, shards).unwrap();
            for t in THREAD_COUNTS {
                let (v2, g2) = Store::open(&manifest)
                    .unwrap()
                    .graph(Threads::Fixed(t), &Recorder::disabled())
                    .unwrap();
                // Term-level identity with the original graph.
                prop_assert_eq!(
                    term_triples(&g2, &v2),
                    term_triples(&g, &vocab)
                );
                // Byte-level identity with the single-file load.
                prop_assert_eq!(
                    g2.graph().labels_raw(),
                    sg.graph().labels_raw()
                );
                prop_assert_eq!(
                    g2.graph().kinds_raw(),
                    sg.graph().kinds_raw()
                );
                prop_assert_eq!(g2.graph().triples(), sg.graph().triples());
                for n in sg.graph().nodes() {
                    prop_assert_eq!(g2.graph().out(n), sg.graph().out(n));
                    prop_assert_eq!(g2.blank_name(n), sg.blank_name(n));
                }
                prop_assert_eq!(v2.len(), sv.len());
                for i in 0..sv.len() {
                    let id = rdf_model::LabelId(i as u32);
                    prop_assert_eq!(v2.kind(id), sv.kind(id));
                    prop_assert_eq!(v2.text(id), sv.text(id));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sharded writes are deterministic: the same graph sharded twice
    /// produces identical manifest and shard bytes.
    #[test]
    fn sharded_save_is_deterministic((vocab, g) in arb_rdf_graph()) {
        let dir_a = tmp("det-a");
        let dir_b = tmp("det-b");
        let pa = save_sharded(dir_a.join("g.rdfm"), &vocab, &g, 3).unwrap();
        let pb = save_sharded(dir_b.join("g.rdfm"), &vocab, &g, 3).unwrap();
        for (a, b) in pa.iter().zip(&pb) {
            prop_assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    /// Every prefix-truncation of a manifest fails with a typed error.
    #[test]
    fn manifest_truncations_fail_loudly((vocab, g) in arb_rdf_graph()) {
        let dir = tmp("trunc");
        let manifest = dir.join("g.rdfm");
        save_sharded(&manifest, &vocab, &g, 2).unwrap();
        let bytes = std::fs::read(&manifest).unwrap();
        for cut in (0..bytes.len()).step_by(9) {
            let r = Store::from_bytes(&bytes[..cut]).and_then(|r| {
                r.graph(Threads::Fixed(2), &Recorder::disabled())
            });
            prop_assert!(
                r.is_err(),
                "cut at {} must fail",
                cut
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A hand-built sharded store exercising each typed corruption error.
fn sample_sharded(tag: &str) -> (PathBuf, PathBuf, Vec<PathBuf>) {
    let mut vocab = Vocab::new();
    let g = {
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        b.uub("ss", "address", "b1");
        b.bul("b1", "zip", "EH8 9AB");
        b.bul("b1", "city", "Edinburgh");
        b.uul("ss", "name", "Sławek\nStaworko@pl");
        b.uuu("ss", "employer", "ed-uni");
        b.uul("ed-uni", "city", "Edinburgh");
        b.finish()
    };
    let dir = tmp(tag);
    let manifest = dir.join("v.rdfm");
    let paths = save_sharded(&manifest, &vocab, &g, 3).unwrap();
    (dir, manifest, paths)
}

fn load(manifest: &PathBuf) -> Result<(Vocab, RdfGraph), StoreError> {
    Store::open(manifest)?.graph(Threads::Fixed(2), &Recorder::disabled())
}

/// Decode a manifest's SHRD directory, apply `edit` to the entry list
/// (as `(name, triples, crc)` tuples) and seed, and write the rebuilt
/// manifest back — the knob the corruption tests turn.
fn rewrite_manifest(
    manifest: &PathBuf,
    edit: impl FnOnce(&mut u64, &mut Vec<(String, u64, u64)>, &mut [u64; 3]),
) {
    let bytes = std::fs::read(manifest).unwrap();
    let c = Container::parse(&bytes).unwrap();
    let mut counts = c.header().counts;
    let shrd = c.section(TAG_SHRD).unwrap();
    let mut pos = 0usize;
    let mut seed = read_varint(shrd, &mut pos).unwrap();
    let n = read_varint(shrd, &mut pos).unwrap();
    let mut entries = Vec::new();
    for _ in 0..n {
        let len = read_varint(shrd, &mut pos).unwrap() as usize;
        let name =
            String::from_utf8(shrd[pos..pos + len].to_vec()).unwrap();
        pos += len;
        let triples = read_varint(shrd, &mut pos).unwrap();
        let crc = read_varint(shrd, &mut pos).unwrap();
        entries.push((name, triples, crc));
    }
    edit(&mut seed, &mut entries, &mut counts);

    let mut body = Vec::new();
    write_varint(&mut body, seed);
    write_varint(&mut body, entries.len() as u64);
    for (name, triples, crc) in &entries {
        write_varint(&mut body, name.len() as u64);
        body.extend_from_slice(name.as_bytes());
        write_varint(&mut body, *triples);
        write_varint(&mut body, *crc);
    }
    let mut out = Vec::new();
    let mut w = ContainerWriter::new();
    w.section(TAG_SHRD, body);
    for (tag, payload) in c.sections().iter().skip(1) {
        w.section(*tag, payload.to_vec());
    }
    w.finish(&mut out, KIND_MANIFEST, counts).unwrap();
    std::fs::write(manifest, out).unwrap();
}

#[test]
fn empty_graph_shards_round_trip() {
    let dir = tmp("empty");
    let vocab = Vocab::new();
    let g = rdf_model::RdfGraphBuilder::new(&mut Vocab::new()).finish();
    let manifest = dir.join("e.rdfm");
    save_sharded(&manifest, &vocab, &g, 4).unwrap();
    let (v2, g2) = load(&manifest).unwrap();
    assert_eq!(g2.node_count(), 0);
    assert_eq!(g2.triple_count(), 0);
    assert_eq!(v2.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_manifest_is_typed() {
    let (dir, manifest, _) = sample_sharded("tr");
    let bytes = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &bytes[..HEADER_LEN + 7]).unwrap();
    assert!(matches!(
        load(&manifest),
        Err(StoreError::Truncated { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_shard_file_is_typed() {
    let (dir, manifest, paths) = sample_sharded("missing");
    std::fs::remove_file(&paths[2]).unwrap();
    match load(&manifest) {
        Err(StoreError::MissingShard { path }) => {
            assert!(path.contains("v-shard-1.rdfb"), "got path {path}")
        }
        other => panic!("expected MissingShard, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_crc_mismatch_is_typed() {
    let (dir, manifest, paths) = sample_sharded("crc");
    // Flip the last byte of shard 0 (always inside its TRPL section).
    // Both the manifest's whole-file CRC and the shard's own section
    // checksum break; the manifest CRC is checked first and names the
    // shard.
    let mut bytes = std::fs::read(&paths[1]).unwrap();
    let at = bytes.len() - 1;
    bytes[at] ^= 0x20;
    std::fs::write(&paths[1], &bytes).unwrap();
    match load(&manifest) {
        Err(StoreError::ShardChecksumMismatch { shard, stored, computed }) => {
            assert_eq!(shard, "v-shard-0.rdfb");
            assert_eq!(computed, crc32(&bytes));
            assert_ne!(stored, computed);
        }
        other => panic!("expected ShardChecksumMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swapped_shard_files_are_typed() {
    let (dir, manifest, paths) = sample_sharded("swap");
    // Swap the files behind shard 0 and shard 1: each file is intact in
    // isolation, but the manifest CRCs no longer line up.
    let a = std::fs::read(&paths[1]).unwrap();
    let b = std::fs::read(&paths[2]).unwrap();
    std::fs::write(&paths[1], &b).unwrap();
    std::fs::write(&paths[2], &a).unwrap();
    assert!(matches!(
        load(&manifest),
        Err(StoreError::ShardChecksumMismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_count_disagreement_is_typed() {
    // Header claims more shards than the directory lists.
    let (dir, manifest, _) = sample_sharded("count-header");
    rewrite_manifest(&manifest, |_, _, counts| counts[0] += 1);
    match load(&manifest) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("header records"), "got: {msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Directory triple totals disagree with the header total.
    let (dir, manifest, _) = sample_sharded("count-totals");
    rewrite_manifest(&manifest, |_, entries, _| entries[0].1 += 1);
    match load(&manifest) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("totals"), "got: {msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Manifest self-consistent but disagreeing with the shard file's
    // own embedded count. The failure is discovered *inside* the shard
    // parse, so it arrives wrapped with the failing file's name.
    let (dir, manifest, _) = sample_sharded("count-shard");
    rewrite_manifest(&manifest, |_, entries, counts| {
        entries[0].1 += 1;
        counts[2] += 1;
    });
    match load(&manifest) {
        Err(StoreError::InShard { shard, source }) => {
            assert!(shard.contains("shard-0"), "got shard: {shard}");
            match *source {
                StoreError::Corrupt(ref msg) => {
                    assert!(msg.contains("disagrees"), "got: {msg}")
                }
                ref other => panic!("expected Corrupt inside, got {other:?}"),
            }
        }
        other => panic!("expected InShard(Corrupt), got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_shard_entries_are_typed() {
    let (dir, manifest, _) = sample_sharded("dup");
    rewrite_manifest(&manifest, |_, entries, counts| {
        // Keep every count check consistent so the duplicate-name check
        // itself must fire.
        let old = entries[1].1;
        entries[1] = entries[0].clone();
        counts[2] = counts[2] - old + entries[1].1;
    });
    match load(&manifest) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("duplicate shard entry"), "got: {msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn path_escaping_shard_names_are_typed() {
    // Shard names are untrusted manifest content; anything that is not
    // a plain file name must be rejected before any file is opened —
    // a crafted manifest must not direct reads outside the store
    // directory (or at devices).
    for evil in ["../escape.rdfb", "/dev/stdin", "a/b.rdfb", "..", ""] {
        let (dir, manifest, _) = sample_sharded("evil-name");
        rewrite_manifest(&manifest, |_, entries, _| {
            entries[0].0 = evil.to_owned();
        });
        match load(&manifest) {
            Err(StoreError::Corrupt(msg)) => assert!(
                msg.contains("plain file name"),
                "name {evil:?} got: {msg}"
            ),
            other => panic!(
                "expected Corrupt for name {evil:?}, got {other:?}"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn zero_shard_manifest_is_typed() {
    let (dir, manifest, _) = sample_sharded("zero");
    rewrite_manifest(&manifest, |_, entries, counts| {
        entries.clear();
        counts[0] = 0;
        counts[2] = 0;
    });
    match load(&manifest) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("zero shards"), "got: {msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graph_store_passed_as_manifest_is_typed() {
    let (dir, manifest, _) = sample_sharded("kind");
    // Ask a single-file graph store for its shards.
    let mut vocab = Vocab::new();
    let g = {
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        b.uul("x", "p", "v");
        b.finish()
    };
    let single = dir.join("g.rdfb");
    rdf_store::save_graph(&single, &vocab, &g).unwrap();
    let rec = std::sync::Arc::new(Recorder::disabled());
    match Store::open(&single).unwrap().shards(rec).map(drop) {
        Err(StoreError::WrongContentKind { found, expected }) => {
            assert_eq!(found, rdf_store::KIND_GRAPH);
            assert_eq!(expected, KIND_MANIFEST);
        }
        other => panic!("expected WrongContentKind, got {other:?}"),
    }
    // And the real manifest still opens as a manifest.
    let info = Store::open(&manifest).unwrap().info(&Recorder::disabled());
    assert_eq!(info.unwrap().header.kind, KIND_MANIFEST);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_triples_across_shards_are_typed() {
    let (dir, manifest, paths) = sample_sharded("overlap");
    // Pick a shard that actually holds triples, clone its TRPL run
    // into the *next* shard slot (re-indexed so the per-shard checks
    // pass), and fix the manifest accordingly. The stitched graph then
    // dedups the repeated triples, and the final total-count check
    // must catch the overlap.
    let (src, src_bytes, triples_src) = (0..3)
        .map(|k| {
            let bytes = std::fs::read(&paths[1 + k]).unwrap();
            let t = Container::parse(&bytes).unwrap().header().counts[2];
            (k, bytes, t)
        })
        .find(|&(_, _, t)| t > 0)
        .expect("sample graph has triples somewhere");
    let dst = (src + 1) % 3;
    let c = Container::parse(&src_bytes).unwrap();
    let mut out = Vec::new();
    let mut w = ContainerWriter::new();
    w.section(*b"TRPL", c.section(*b"TRPL").unwrap().to_vec());
    w.finish(&mut out, rdf_store::KIND_SHARD, [dst as u64, 0, triples_src])
        .unwrap();
    std::fs::write(&paths[1 + dst], &out).unwrap();
    let new_crc = crc32(&out);
    rewrite_manifest(&manifest, |_, entries, counts| {
        let old = entries[dst].1;
        entries[dst].1 = triples_src;
        entries[dst].2 = u64::from(new_crc);
        counts[2] = counts[2] - old + triples_src;
    });
    match load(&manifest) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(
                msg.contains("duplicate or overlapping"),
                "got: {msg}"
            )
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
