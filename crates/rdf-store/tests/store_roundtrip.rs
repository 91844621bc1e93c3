//! Property suite for the `.rdfb` store: `load(save(g)) == g`
//! term-for-term for random graphs (blank nodes, escaped / lang-tagged /
//! datatyped literals), byte-identical reconstruction of freshly parsed
//! graphs, a borrowed (zero-copy) view equal to the owned load, and
//! typed — never panicking — failures on corrupt containers, on
//! version-1 stores and on any column width but 4.
//!
//! The borrowed-reader *lifetime* contract (a view cannot outlive its
//! buffer) is enforced at compile time by the `compile_fail` doctest on
//! [`rdf_store::BorrowedStoreReader`].

use proptest::prelude::*;
use rdf_io::{parse_graph, write_graph};
use rdf_model::{LabelRef, NodeId, RdfGraph, Term, Vocab};
use rdf_par::Threads;
use rdf_store::{
    checksum::crc32,
    container::{HEADER_LEN, SECTION_OVERHEAD},
    graph_to_bytes, open_any,
    varint::write_varint,
    BorrowedStoreReader, Container, ContainerWriter, StoreBuf, StoreError,
    StoreReader, FORMAT_VERSION, KIND_GRAPH,
};

/// Awkward characters exercising literal and IRI escaping.
const TRICKY: &[&str] = &[
    "", " ", "\"", "\\", "\n", "\r", "\t", "café", "😀", "a b", "x\\\"y",
    "line1\nline2", "<angle>", "fin.",
];

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
/// objects, literals drawn from the tricky pool with language tags and
/// datatypes folded in.
fn arb_rdf_graph() -> impl Strategy<Value = (Vocab, RdfGraph)> {
    (1usize..24, any::<u64>()).prop_map(|(m, seed)| {
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
            let s_uri = format!("http://e.org/s{}", next() % 6);
            let s_blank = format!("bn{}", next() % 5);
            let p = format!("http://e.org/p{}", next() % 4);
            let tricky = TRICKY[(next() % TRICKY.len() as u64) as usize];
            let lit = match next() % 4 {
                0 => tricky.to_string(),
                1 => format!("{tricky}@en"),
                2 => format!(
                    "{}^^http://www.w3.org/2001/XMLSchema#string",
                    next() % 9
                ),
                _ => format!("value {} {tricky}", next() % 7),
            };
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `load(save(g)) == g` term-for-term, blank names included.
    #[test]
    fn save_load_is_identity((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let (v2, g2) = StoreReader::from_bytes(bytes).read_graph().unwrap();
        prop_assert_eq!(g2.node_count(), g.node_count());
        prop_assert_eq!(g2.triple_count(), g.triple_count());
        prop_assert_eq!(term_triples(&g2, &v2), term_triples(&g, &vocab));
        for n in g.graph().nodes() {
            prop_assert_eq!(g2.blank_name(n), g.blank_name(n));
        }
    }

    /// `load(save(parse(text)))` reconstructs `parse(text)` *byte-
    /// identically*: same node ids, same label ids, same CSR adjacency —
    /// not just term equality — because a fresh parse interns labels
    /// densely in first-appearance order, which is exactly the store's
    /// dictionary order.
    #[test]
    fn store_of_fresh_parse_is_byte_identical((vocab, g) in arb_rdf_graph()) {
        let text = write_graph(&g, &vocab);
        let mut fresh = Vocab::new();
        let parsed = parse_graph(&text, &mut fresh).unwrap();
        let bytes = graph_to_bytes(&fresh, &parsed).unwrap();
        let (v2, loaded) = StoreReader::from_bytes(bytes).read_graph().unwrap();
        prop_assert_eq!(
            loaded.graph().labels_raw(),
            parsed.graph().labels_raw()
        );
        prop_assert_eq!(loaded.graph().kinds_raw(), parsed.graph().kinds_raw());
        prop_assert_eq!(loaded.graph().triples(), parsed.graph().triples());
        for n in parsed.graph().nodes() {
            prop_assert_eq!(loaded.graph().out(n), parsed.graph().out(n));
        }
        prop_assert_eq!(v2.len(), fresh.len());
        for i in 0..fresh.len() {
            let id = rdf_model::LabelId(i as u32);
            prop_assert_eq!(v2.kind(id), fresh.kind(id));
            prop_assert_eq!(v2.text(id), fresh.text(id));
        }
        // And the canonical serialisation agrees byte-for-byte.
        prop_assert_eq!(write_graph(&loaded, &v2), text);
    }

    /// Saving is deterministic: identical graphs produce identical bytes.
    #[test]
    fn save_is_deterministic((vocab, g) in arb_rdf_graph()) {
        let a = graph_to_bytes(&vocab, &g).unwrap();
        let b = graph_to_bytes(&vocab, &g).unwrap();
        prop_assert_eq!(a, b);
    }

    /// A saved graph is a graph-kind container stamped with the one
    /// graph-store version, and every section payload is padded to a
    /// multiple of 8 bytes so column reads stay aligned.
    #[test]
    fn save_stamps_the_graph_version((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        prop_assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION);
        let c = Container::parse(&bytes).unwrap();
        prop_assert_eq!(c.header().version, FORMAT_VERSION);
        prop_assert_eq!(c.header().kind, KIND_GRAPH);
        for (tag, payload) in c.sections() {
            prop_assert!(
                payload.len() % 8 == 0,
                "section {:?} is not 8-padded",
                std::str::from_utf8(tag)
            );
        }
    }

    /// The borrowed view over the store bytes equals the owned load:
    /// same labels, kinds, triples and dictionary size.
    #[test]
    fn borrowed_view_matches_owned_load((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let (ov, owned) =
            StoreReader::from_bytes(bytes.clone()).read_graph().unwrap();
        let reader =
            BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
        let (bv, view) = reader.read_view().unwrap();
        prop_assert!(view.columns_borrowed());
        prop_assert_eq!(view.labels(), owned.graph().labels_raw());
        prop_assert_eq!(view.kinds(), owned.graph().kinds_raw());
        prop_assert_eq!(view.to_graph().triples(), owned.graph().triples());
        prop_assert_eq!(bv.len(), ov.len());
    }

    /// Every prefix-truncation of a valid container fails with a typed
    /// error — no panic, no silent partial graph.
    #[test]
    fn truncations_fail_loudly((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        // Sampling every 7th cut keeps the case fast while still
        // touching header, frame and payload territory.
        for cut in (0..bytes.len()).step_by(7) {
            let r = StoreReader::from_bytes(bytes[..cut].to_vec());
            prop_assert!(r.read_graph().is_err(), "cut at {} must fail", cut);
        }
    }

    /// Every cut landing inside the `NODE` or `TRPL` columns — mid-record
    /// included — fails with a typed error from both the owned and the
    /// borrowed reader.
    #[test]
    fn column_truncations_fail_loudly((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        for tag in [b"NODE", b"TRPL"] {
            let (off, len) = section_payload(&bytes, tag);
            for cut in off..off + len {
                let owned = StoreReader::from_bytes(bytes[..cut].to_vec())
                    .read_graph();
                prop_assert!(owned.is_err(), "owned cut at {} must fail", cut);
                let reader = BorrowedStoreReader::from_buf(
                    StoreBuf::from_bytes(&bytes[..cut]),
                );
                prop_assert!(
                    reader.read_view().is_err(),
                    "borrowed cut at {} must fail",
                    cut
                );
            }
        }
    }

    /// Any single flipped payload bit is caught (by a checksum mismatch
    /// or a later structural check) — sampled across the file.
    #[test]
    fn bit_flips_are_detected((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        for i in (0..bytes.len()).step_by(11) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            // Must not panic; almost always errors. A flip inside an
            // unused header byte region cannot occur (all 32 bytes are
            // meaningful), but a flip may cancel out only by breaking a
            // count that a structural check catches — either way, no
            // silent success with different content.
            let r = StoreReader::from_bytes(corrupt).read_graph();
            if let Ok((v2, g2)) = r {
                // The only acceptable "success" is content identity
                // (impossible for a real flip, but assert it anyway).
                prop_assert_eq!(
                    term_triples(&g2, &v2),
                    term_triples(&g, &vocab)
                );
            }
        }
    }
}

/// A hand-built container exercising each typed corruption error.
fn sample_store() -> (Vocab, RdfGraph, Vec<u8>) {
    let mut vocab = Vocab::new();
    let g = {
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        b.uub("ss", "address", "b1");
        b.bul("b1", "zip", "EH8 9AB");
        b.bul("b1", "city", "Edinburgh");
        b.uul("ss", "name", "Sławek\nStaworko@pl");
        b.finish()
    };
    let bytes = graph_to_bytes(&vocab, &g).unwrap();
    (vocab, g, bytes)
}

#[test]
fn bad_magic_is_typed() {
    let (_, _, mut bytes) = sample_store();
    bytes[..4].copy_from_slice(b"NOPE");
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_typed() {
    let (_, _, mut bytes) = sample_store();
    bytes[4] = 3;
    bytes[5] = 0;
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::UnsupportedVersion { found: 3, supported }) => {
            assert_eq!(supported, FORMAT_VERSION)
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn version_flag_is_the_layout_authority() {
    // Stamping version 1 onto fixed-width bytes must fail on the header
    // alone: readers accept exactly one version per content kind and
    // never try to guess a body layout.
    let (_, _, mut bytes) = sample_store();
    bytes[4] = 1;
    bytes[5] = 0;
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::UnsupportedVersion { found: 1, supported: 2 }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn flipped_checksum_byte_is_typed() {
    let (_, _, mut bytes) = sample_store();
    // First section's stored checksum sits at header + tag + len.
    let crc_at = HEADER_LEN + 4 + 8;
    bytes[crc_at] ^= 0xff;
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::ChecksumMismatch { section, .. }) => {
            assert_eq!(&section, b"DICT")
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn flipped_trpl_checksum_is_typed() {
    let (_, _, mut bytes) = sample_store();
    let (off, _) = section_payload(&bytes, b"TRPL");
    // Stored checksum sits in the 4 bytes before the payload.
    bytes[off - 4] ^= 0xff;
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::ChecksumMismatch { section, .. }) => {
            assert_eq!(&section, b"TRPL")
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn flipped_payload_byte_is_typed() {
    let (_, _, mut bytes) = sample_store();
    let payload_at = HEADER_LEN + SECTION_OVERHEAD
        + 3;
    bytes[payload_at] ^= 0x55;
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_header_is_typed() {
    let (_, _, bytes) = sample_store();
    match StoreReader::from_bytes(bytes[..10].to_vec()).read_graph() {
        Err(StoreError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn archive_kind_rejected_by_graph_loader() {
    let (_, _, mut bytes) = sample_store();
    // Patch the content-kind byte to ARCHIVE (and the version to the
    // archive's, which the header check demands) and fix nothing else;
    // the kind check fires before any section is interpreted.
    bytes[6] = rdf_store::KIND_ARCHIVE;
    bytes[4..6].copy_from_slice(&rdf_store::ARCHIVE_VERSION.to_le_bytes());
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::WrongContentKind { found, expected }) => {
            assert_eq!(found, rdf_store::KIND_ARCHIVE);
            assert_eq!(expected, rdf_store::KIND_GRAPH);
        }
        other => panic!("expected WrongContentKind, got {other:?}"),
    }
}

#[test]
fn empty_graph_round_trips() {
    let vocab = Vocab::new();
    let g = rdf_model::RdfGraphBuilder::new(&mut Vocab::new()).finish();
    let bytes = graph_to_bytes(&vocab, &g).unwrap();
    let (v2, g2) = StoreReader::from_bytes(bytes).read_graph().unwrap();
    assert_eq!(g2.node_count(), 0);
    assert_eq!(g2.triple_count(), 0);
    assert_eq!(v2.len(), 1);
}

#[test]
fn info_reports_header_and_sections() {
    let (_, g, bytes) = sample_store();
    let info = StoreReader::from_bytes(bytes.clone()).info().unwrap();
    assert_eq!(info.header.kind, rdf_store::KIND_GRAPH);
    assert_eq!(info.header.counts[1], g.node_count() as u64);
    assert_eq!(info.header.counts[2], g.triple_count() as u64);
    assert_eq!(info.file_bytes, bytes.len());
    let tags: Vec<&str> =
        info.sections.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(tags, ["DICT", "NODE", "TRPL", "BNAM"]);
}

/// Walk the section frames of a container, returning the payload offset
/// and length of the section with `tag`.
fn section_payload(bytes: &[u8], tag: &[u8; 4]) -> (usize, usize) {
    let mut pos = HEADER_LEN;
    while pos + SECTION_OVERHEAD <= bytes.len() {
        let found: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = u64::from_le_bytes(
            bytes[pos + 4..pos + 12].try_into().unwrap(),
        ) as usize;
        if &found == tag {
            return (pos + SECTION_OVERHEAD, len);
        }
        pos += SECTION_OVERHEAD + len;
    }
    panic!("section {:?} not found", std::str::from_utf8(tag));
}

/// Recompute a section's stored CRC after tampering with its payload so
/// the corruption reaches the body decoder instead of the checksum.
fn fix_crc(bytes: &mut [u8], tag: &[u8; 4]) {
    let (off, len) = section_payload(bytes, tag);
    let crc = crc32(&bytes[off..off + len]);
    bytes[off - 4..off].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn bad_width_byte_is_typed() {
    let (_, _, mut bytes) = sample_store();
    // The width byte sits after the 8-byte count in the TRPL preamble.
    let (off, _) = section_payload(&bytes, b"TRPL");
    bytes[off + 8] = 3;
    fix_crc(&mut bytes, b"TRPL");
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("unsupported column width 3"), "got: {msg}")
        }
        other => panic!("expected Corrupt(width), got {other:?}"),
    }
}

#[test]
fn nonzero_padding_is_typed() {
    let (_, _, mut bytes) = sample_store();
    // The sample graph has an odd node count, so the 4-byte NODE column
    // ends 4 bytes short of the 8-byte boundary: its tail is zero
    // padding. Poisoning it must be detected.
    let (off, len) = section_payload(&bytes, b"NODE");
    bytes[off + len - 1] = 0xAA;
    fix_crc(&mut bytes, b"NODE");
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("padding"), "got: {msg}")
        }
        other => panic!("expected Corrupt(padding), got {other:?}"),
    }
}

/// Re-frame a container with `edit` applied to each section payload
/// (the writer recomputes every CRC).
fn reframe(bytes: &[u8], edit: impl Fn(&[u8; 4], &mut Vec<u8>)) -> Vec<u8> {
    let c = Container::parse(bytes).unwrap();
    let header = *c.header();
    let mut w = ContainerWriter::new();
    for (tag, payload) in c.sections() {
        let mut p = payload.to_vec();
        edit(tag, &mut p);
        w.section(*tag, p);
    }
    let mut out = Vec::new();
    w.finish(&mut out, header.kind, header.counts).unwrap();
    out
}

#[test]
fn misaligned_payload_is_typed() {
    // One extra byte appended to the TRPL payload: its length is no
    // longer a multiple of 8, so the decoder must reject the body as
    // trailing garbage (after the recomputed CRC passes).
    let (_, _, bytes) = sample_store();
    let out = reframe(&bytes, |tag, p| {
        if tag == b"TRPL" {
            p.push(0);
        }
    });
    match StoreReader::from_bytes(out).read_graph() {
        Err(StoreError::Corrupt(_) | StoreError::Truncated { .. }) => {}
        other => panic!("expected typed misalignment error, got {other:?}"),
    }
}

#[test]
fn count_mismatch_is_typed() {
    let (_, _, mut bytes) = sample_store();
    // Lower the header triple count: the TRPL preamble count no longer
    // matches what the header claims.
    let triples = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    bytes[24..32].copy_from_slice(&(triples - 1).to_le_bytes());
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("disagrees with header"), "got: {msg}")
        }
        other => panic!("expected Corrupt(count mismatch), got {other:?}"),
    }
}

/// A version-1 graph store as earlier releases wrote it, built by hand:
/// varint `NODE`/`TRPL` bodies, no padding, version 1 in the header.
/// The graph is one triple `<u:s> <u:p> "o"`.
fn v1_store() -> Vec<u8> {
    let mut dict = Vec::new();
    write_varint(&mut dict, 4);
    for (kind, text) in [(1u8, "u:s"), (1, "u:p"), (2, "o")] {
        dict.push(kind);
        write_varint(&mut dict, text.len() as u64);
        dict.extend_from_slice(text.as_bytes());
    }
    let mut node = Vec::new();
    for v in [3, 1, 2, 3] {
        write_varint(&mut node, v); // node count, then one label per node
    }
    let mut trpl = Vec::new();
    for v in [1, 0, 1, 2] {
        write_varint(&mut trpl, v); // triple count, then (ds, dp, do)
    }
    let mut w = ContainerWriter::new();
    w.section(*b"DICT", dict)
        .section(*b"NODE", node)
        .section(*b"TRPL", trpl)
        .section(*b"BNAM", vec![0]);
    let mut out = Vec::new();
    w.finish(&mut out, KIND_GRAPH, [4, 3, 1]).unwrap();
    // The header is not checksummed: stamp the old version over it.
    out[4..6].copy_from_slice(&1u16.to_le_bytes());
    out
}

/// The sample store with its `NODE` column rewritten at width 2, as the
/// minimal-width writer of earlier releases produced for small graphs.
fn width2_store() -> Vec<u8> {
    let (_, _, bytes) = sample_store();
    reframe(&bytes, |tag, p| {
        if tag == b"NODE" {
            let count = u64::from_le_bytes(p[..8].try_into().unwrap());
            let ids: Vec<u32> = p[16..16 + 4 * count as usize]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            p.truncate(16);
            p[8] = 2;
            for id in ids {
                p.extend_from_slice(&(id as u16).to_le_bytes());
            }
            while p.len() % 8 != 0 {
                p.push(0);
            }
        }
    })
}

/// Each rejected input must fail with `check` from every entry point —
/// `open_any` (and its load), the owned reader and the borrowed reader.
fn rejected_everywhere(
    bytes: &[u8],
    tag: &str,
    check: fn(&StoreError) -> bool,
) {
    let dir = std::env::temp_dir()
        .join(format!("rdf-store-rt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.rdfb");
    std::fs::write(&path, bytes).unwrap();
    let errs = [
        open_any(&path)
            .and_then(|r| r.read_graph(Threads::Fixed(1)))
            .unwrap_err(),
        StoreReader::from_bytes(bytes.to_vec()).read_graph().unwrap_err(),
        BorrowedStoreReader::from_buf(StoreBuf::from_bytes(bytes))
            .read_view()
            .unwrap_err(),
    ];
    for err in &errs {
        assert!(check(err), "{tag}: unexpected {err:?}");
        assert!(err.to_string().contains("re-import"), "{tag}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_one_store_is_rejected_by_every_reader() {
    rejected_everywhere(&v1_store(), "v1", |e| {
        matches!(e, StoreError::UnsupportedVersion { found: 1, supported: 2 })
    });
}

#[test]
fn width_two_column_is_rejected_by_every_reader() {
    rejected_everywhere(&width2_store(), "w2", |e| {
        matches!(e, StoreError::Corrupt(m) if m.contains("column width 2"))
    });
}

#[test]
fn no_mmap_fallback_serves_identical_bytes() {
    let (_, g, bytes) = sample_store();
    let dir = std::env::temp_dir()
        .join(format!("rdf-store-rt-nommap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.rdfb");
    std::fs::write(&path, &bytes).unwrap();
    // The only test in this file that opens a store by path, so the
    // environment switch cannot change another test's reader.
    let mapped = BorrowedStoreReader::open(&path).unwrap();
    std::env::set_var("RDF_NO_MMAP", "1");
    let fallback = BorrowedStoreReader::open(&path);
    std::env::remove_var("RDF_NO_MMAP");
    let fallback = fallback.unwrap();
    assert!(!fallback.buf().is_mapped());
    assert_eq!(fallback.buf().as_slice(), bytes.as_slice());
    assert_eq!(mapped.buf().as_slice(), bytes.as_slice());
    let (_, a) = mapped.read_view().unwrap();
    let (_, b) = fallback.read_view().unwrap();
    assert!(a.columns_borrowed() && b.columns_borrowed());
    assert_eq!(a.labels(), b.labels());
    assert_eq!(a.to_graph().triples(), b.to_graph().triples());
    assert_eq!(b.to_graph().triples(), g.graph().triples());
    let _ = std::fs::remove_dir_all(&dir);
}
