//! Saving and loading a dictionary-encoded [`TripleGraph`] (`.rdfb`,
//! content kind [`KIND_GRAPH`]).
//!
//! A graph container holds four sections — `DICT` (label dictionary),
//! `NODE` (per-node dictionary ids), `TRPL` (sorted triples as three
//! fixed-width columns) and `BNAM` (document-local blank-node names);
//! their exact byte layouts are specified in `docs/FORMAT.md` §3.
//!
//! Labels are remapped to *dense* ids in ascending first-use order before
//! writing, so a store written from a freshly parsed graph has exactly
//! the parse's interning order, and `load(save(parse(text)))` rebuilds a
//! graph byte-identical to `parse(text)` — same node ids, same label ids,
//! same CSR layout — without hashing a single string per node or triple.
//!
//! The section bodies are format primitives shared with *sharded*
//! stores ([`crate::sharded`]): a manifest carries the same `DICT` /
//! `NODE` / `BNAM` sections once, globally, while each shard file holds
//! a `TRPL` section encoding its subject-partition. The encode/decode
//! helpers below (and the column codec in [`crate::fixed`]) are
//! therefore the single source of truth for both — byte-identical
//! stitching falls out by construction.

use crate::container::{
    Container, ContainerWriter, Header, Layout, KIND_GRAPH, SECTION_OVERHEAD,
};
use crate::dict::{read_dict, read_string, write_dict};
use crate::error::StoreError;
use crate::fixed::{check_pad8, encode_node_into, encode_trpl_into, pad8};
use crate::varint::{read_varint_u32, read_varint_usize, write_varint};
use rdf_model::{
    FxHashMap, LabelId, LabelKind, NodeId, RdfGraph, TripleGraph, Vocab,
};
use rdf_obs::{Recorder, SpanGuard};
use std::io::Write;
use std::path::Path;

pub(crate) const TAG_DICT: [u8; 4] = *b"DICT";
pub(crate) const TAG_NODE: [u8; 4] = *b"NODE";
pub(crate) const TAG_TRPL: [u8; 4] = *b"TRPL";
pub(crate) const TAG_BNAM: [u8; 4] = *b"BNAM";

/// The encoded graph-global section bodies (everything except triples):
/// dictionary, per-node labels, and blank-node names. One instance is
/// written per graph regardless of how many files the triples span.
pub(crate) struct GlobalSections {
    pub dict: Vec<u8>,
    pub node: Vec<u8>,
    pub bnam: Vec<u8>,
    /// Number of dictionary entries (including the implicit blank).
    pub dict_count: u64,
}

/// Encode the `DICT`, `NODE` and `BNAM` bodies for a graph, remapping
/// label ids onto a dense dictionary (0 stays the blank label, the rest
/// keep their relative first-interned order — a graph parsed into a
/// fresh vocab maps identically).
pub(crate) fn encode_global_sections(
    vocab: &Vocab,
    graph: &RdfGraph,
) -> Result<GlobalSections, StoreError> {
    let g = graph.graph();

    let mut used: Vec<LabelId> = g.labels_raw().to_vec();
    used.sort_unstable();
    used.dedup();
    if used.first() != Some(&LabelId::BLANK) {
        used.insert(0, LabelId::BLANK);
    }
    let mut dense = vec![u32::MAX; vocab.len()];
    for (new, old) in used.iter().enumerate() {
        dense[old.index()] = new as u32;
    }

    let mut dict = Vec::new();
    write_dict(&mut dict, vocab, used[1..].iter().copied())?;

    let remapped: Vec<LabelId> = g
        .labels_raw()
        .iter()
        .map(|l| LabelId(dense[l.index()]))
        .collect();
    let mut node = Vec::new();
    encode_node_into(&mut node, &remapped);

    let mut names: Vec<(NodeId, &str)> = graph
        .blank_names()
        .iter()
        .map(|(&n, s)| (n, s.as_str()))
        .collect();
    names.sort_unstable_by_key(|&(n, _)| n);
    let mut bnam = Vec::new();
    write_varint(&mut bnam, names.len() as u64);
    let mut prev = 0u32;
    for (n, name) in names {
        write_varint(&mut bnam, u64::from(n.0 - prev));
        prev = n.0;
        write_varint(&mut bnam, name.len() as u64);
        bnam.extend_from_slice(name.as_bytes());
    }
    // Every payload is padded to 8, the varint bodies included.
    pad8(&mut dict);
    pad8(&mut bnam);

    Ok(GlobalSections {
        dict,
        node,
        bnam,
        dict_count: used.len() as u64,
    })
}

/// Bounds-check store label ids against the decoded dictionary and
/// derive the per-node kind array. Shared by the owned and borrowed
/// loads.
pub(crate) fn kinds_for_labels(
    labels: &[LabelId],
    vocab: &Vocab,
) -> Result<Vec<LabelKind>, StoreError> {
    let mut kinds = Vec::with_capacity(labels.len());
    for &label in labels {
        if label.index() >= vocab.len() {
            return Err(StoreError::Corrupt(format!(
                "node label id {} beyond dictionary of {}",
                label.0,
                vocab.len()
            )));
        }
        kinds.push(vocab.kind(label));
    }
    Ok(kinds)
}

/// Decode a `NODE` body into per-node labels + kinds against `vocab`.
/// With `expected`, the embedded node count must match it exactly.
pub(crate) fn decode_node(
    node: &[u8],
    vocab: &Vocab,
    expected: Option<u64>,
) -> Result<(Vec<LabelId>, Vec<LabelKind>), StoreError> {
    let labels = crate::fixed::decode_node(node, expected)?;
    let kinds = kinds_for_labels(&labels, vocab)?;
    Ok((labels, kinds))
}

/// Decode a `BNAM` body into the blank-name map; node ids must stay
/// within `node_count`.
pub(crate) fn decode_bnam(
    bnam: &[u8],
    node_count: usize,
) -> Result<FxHashMap<NodeId, String>, StoreError> {
    let mut pos = 0usize;
    let name_count = read_varint_usize(bnam, &mut pos)?;
    let mut blank_names = FxHashMap::default();
    let mut prev = 0u32;
    for i in 0..name_count {
        let delta = read_varint_u32(bnam, &mut pos)?;
        if i > 0 && delta == 0 {
            return Err(StoreError::Corrupt(
                "duplicate blank-name node id".into(),
            ));
        }
        prev = prev.checked_add(delta).ok_or_else(overflow)?;
        if prev as usize >= node_count {
            return Err(StoreError::Corrupt(format!(
                "blank name for node {prev} beyond node count {node_count}"
            )));
        }
        let name = read_string(bnam, &mut pos, "blank-node name")?;
        blank_names.insert(NodeId(prev), name);
    }
    check_pad8(bnam, pos, "BNAM section")?;
    Ok(blank_names)
}

/// Decode a `DICT` body into a fresh vocabulary. With `expected`, the
/// dictionary entry count must match it exactly. The body is varint
/// encoded with the universal pad-to-8 tail, which is verified here.
pub(crate) fn decode_dict_checked(
    dict: &[u8],
    expected: Option<u64>,
) -> Result<Vocab, StoreError> {
    let mut pos = 0usize;
    let vocab = read_dict(dict, &mut pos)?;
    check_pad8(dict, pos, "DICT section")?;
    if let Some(exp) = expected {
        if vocab.len() as u64 != exp {
            return Err(StoreError::Corrupt(format!(
                "dictionary count {} disagrees with header {exp}",
                vocab.len()
            )));
        }
    }
    Ok(vocab)
}

/// Writes graph containers to any [`Write`] sink.
#[derive(Debug)]
pub struct StoreWriter<W: Write> {
    out: W,
}

impl<W: Write> StoreWriter<W> {
    /// Wrap a sink.
    pub fn new(out: W) -> Self {
        StoreWriter { out }
    }

    /// Serialise one graph (with the vocabulary its labels live in) and
    /// return the sink.
    pub fn write_graph(
        mut self,
        vocab: &Vocab,
        graph: &RdfGraph,
    ) -> Result<W, StoreError> {
        let g = graph.graph();
        let global = encode_global_sections(vocab, graph)?;
        let mut trpl = Vec::new();
        encode_trpl_into(&mut trpl, g.triples());

        let counts = [
            global.dict_count,
            g.node_count() as u64,
            g.triple_count() as u64,
        ];
        let mut w = ContainerWriter::new();
        w.section(TAG_DICT, global.dict)
            .section(TAG_NODE, global.node)
            .section(TAG_TRPL, trpl)
            .section(TAG_BNAM, global.bnam);
        w.finish(&mut self.out, KIND_GRAPH, counts)?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// [`StoreWriter::write_graph`], kept only for the `perfbench`
    /// helper crate, which calls it with `Layout::default()` (the one
    /// layout there is).
    pub fn write_graph_layout(
        self,
        vocab: &Vocab,
        graph: &RdfGraph,
        _layout: Layout,
    ) -> Result<W, StoreError> {
        self.write_graph(vocab, graph)
    }
}

/// Reads graph containers from an in-memory image of the file.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, Vocab};
/// use rdf_store::{graph_to_bytes, StoreReader};
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let bytes = graph_to_bytes(&vocab, &g).unwrap();
///
/// let reader = StoreReader::from_bytes(bytes);
/// let info = reader.info().unwrap();          // header + checksums
/// assert_eq!(info.header.counts[1], g.node_count() as u64);
/// let (vocab2, g2) = reader.read_graph().unwrap();
/// assert_eq!(g2.graph().triples(), g.graph().triples());
/// assert!(vocab2.find_uri("address").is_some());
/// ```
#[derive(Debug)]
pub struct StoreReader {
    bytes: Vec<u8>,
}

/// Summary of a container, as shown by `rdf info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Parsed fixed header.
    pub header: Header,
    /// Total file size in bytes.
    pub file_bytes: usize,
    /// `(tag, payload bytes)` per section, in file order. Present only
    /// after full validation — every listed section passed its checksum.
    pub sections: Vec<(String, usize)>,
}

impl StoreReader {
    /// Read a container file fully into memory.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(StoreReader {
            bytes: std::fs::read(path)?,
        })
    }

    /// Wrap an already-loaded byte buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        StoreReader { bytes }
    }

    /// Validate the whole container (header, framing, checksums) and
    /// summarise it. Works for any content kind.
    pub fn info(&self) -> Result<StoreInfo, StoreError> {
        let c = Container::parse(&self.bytes)?;
        Ok(StoreInfo {
            header: *c.header(),
            file_bytes: self.bytes.len(),
            sections: c
                .sections()
                .iter()
                .map(|(tag, p)| {
                    (
                        String::from_utf8_lossy(tag).into_owned(),
                        p.len() + SECTION_OVERHEAD,
                    )
                })
                .collect(),
        })
    }

    /// Decode the graph and its dictionary.
    ///
    /// The returned [`Vocab`] contains exactly the store's dictionary
    /// (dense ids, blank label at 0); the graph's label ids index it
    /// directly. No string is hashed per node or triple — only the one
    /// pass that rebuilds the vocabulary's intern maps from the
    /// dictionary.
    pub fn read_graph(&self) -> Result<(Vocab, RdfGraph), StoreError> {
        self.read_graph_traced(&Recorder::disabled())
    }

    /// [`StoreReader::read_graph`] with instrumentation: emits one
    /// `store.open` span covering the container parse (framing plus
    /// every section CRC) and one `store.section` span per decoded
    /// section body. The decoded graph is byte-identical to the
    /// untraced load — tracing is a pure side channel.
    pub fn read_graph_traced(
        &self,
        rec: &Recorder,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        let mut open = rec.span("store.open");
        open.field("bytes", self.bytes.len());
        let c = Container::parse(&self.bytes)?;
        drop(open);
        let header = *c.header();
        if header.kind != KIND_GRAPH {
            return Err(StoreError::WrongContentKind {
                found: header.kind,
                expected: KIND_GRAPH,
            });
        }

        let dict_body = c.section(TAG_DICT)?;
        let vocab = {
            let _sp = section_span(rec, "DICT", dict_body.len());
            decode_dict_checked(dict_body, Some(header.counts[0]))?
        };
        let node_body = c.section(TAG_NODE)?;
        let (labels, node_kinds) = {
            let _sp = section_span(rec, "NODE", node_body.len());
            decode_node(node_body, &vocab, Some(header.counts[1]))?
        };
        let node_count = labels.len();
        let trpl_body = c.section(TAG_TRPL)?;
        let triples = {
            let _sp = section_span(rec, "TRPL", trpl_body.len());
            crate::fixed::decode_trpl(trpl_body, Some(header.counts[2]))?
        };
        // Strictly ascending (checked by the decoder), so duplicate-free.
        let graph = TripleGraph::from_raw_parts(labels, node_kinds, triples)
            .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        let bnam_body = c.section(TAG_BNAM)?;
        let blank_names = {
            let _sp = section_span(rec, "BNAM", bnam_body.len());
            decode_bnam(bnam_body, node_count)?
        };
        Ok((vocab, RdfGraph::from_raw_parts(graph, blank_names)))
    }
}

/// A `store.section` span tagged with the section name and body size.
/// Shared by the single-file, borrowed and manifest traced loads.
pub(crate) fn section_span<'a>(
    rec: &'a Recorder,
    section: &'static str,
    bytes: usize,
) -> SpanGuard<'a> {
    let mut sp = rec.span("store.section");
    sp.field("section", section);
    sp.field("bytes", bytes);
    sp
}

fn overflow() -> StoreError {
    StoreError::Corrupt("id delta overflows u32".into())
}

/// Save a graph to a `.rdfb` file.
pub fn save_graph(
    path: impl AsRef<Path>,
    vocab: &Vocab,
    graph: &RdfGraph,
) -> Result<(), StoreError> {
    let file = std::fs::File::create(path)?;
    StoreWriter::new(std::io::BufWriter::new(file)).write_graph(vocab, graph)?;
    Ok(())
}

/// Load a graph from a `.rdfb` file.
pub fn load_graph(
    path: impl AsRef<Path>,
) -> Result<(Vocab, RdfGraph), StoreError> {
    StoreReader::open(path)?.read_graph()
}

/// Serialise a graph container into a byte vector.
pub fn graph_to_bytes(
    vocab: &Vocab,
    graph: &RdfGraph,
) -> Result<Vec<u8>, StoreError> {
    StoreWriter::new(Vec::new()).write_graph(vocab, graph)
}
