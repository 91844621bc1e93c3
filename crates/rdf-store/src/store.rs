//! [`Store`]: the one handle on an on-disk store — a single-file graph
//! (`.rdfb`), a sharded-store manifest (`.rdfm`), an archive or a lone
//! shard file, resolved by the container's kind byte, never the
//! extension.
//!
//! Opening reads the file once, into a [`StoreBuf`], and parses its
//! header once. The section checksums are verified by the first method
//! that needs them, inside the handle's one `store.open` span, and
//! never again for the same handle; likewise, a manifest's shard files
//! are read and checksummed by the first pass that needs all of them,
//! and later [`Store::info`] calls reuse the sizes that pass recorded.
//! So `rdf info --bisim` reads and checksums each file once, although
//! it both summarises and refines the store.

use crate::borrowed::{decode_globals, walk};
use crate::container::{
    Container, Header, KIND_ARCHIVE, KIND_GRAPH, KIND_MANIFEST, KIND_SHARD,
    SECTION_OVERHEAD,
};
use crate::error::StoreError;
use crate::graph_store::{decode_bnam, section_span, TAG_BNAM};
use crate::mmap::StoreBuf;
use crate::sharded::{
    parse_manifest, stitch, validate_shards, Manifest, StoreShards,
};
use rdf_model::{RdfGraph, TripleGraphView, Vocab};
use rdf_obs::Recorder;
use rdf_par::Threads;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// An opened store of any content kind.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, Vocab};
/// use rdf_obs::Recorder;
/// use rdf_par::Threads;
/// use rdf_store::{graph_to_bytes, Store};
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let bytes = graph_to_bytes(&vocab, &g).unwrap();
/// let store = Store::from_bytes(&bytes).unwrap();
/// let rec = Recorder::disabled();
///
/// let info = store.info(&rec).unwrap(); // header + checksums
/// assert_eq!(info.header.counts[1], g.node_count() as u64);
/// let (vocab2, g2) = store.graph(Threads::Fixed(1), &rec).unwrap();
/// assert_eq!(g2.graph().triples(), g.graph().triples());
/// assert!(vocab2.find_uri("address").is_some());
/// // The same graph as a view whose columns borrow the store buffer.
/// let (_, view) = store.view(&rec).unwrap();
/// assert_eq!(view.labels(), g.graph().labels_raw());
/// ```
///
/// A view cannot outlive its store (and thus its mapping) — this does
/// not compile:
///
/// ```compile_fail
/// use rdf_obs::Recorder;
/// use rdf_store::Store;
///
/// let store = Store::from_bytes(&[]).unwrap();
/// let view = store.view(&Recorder::disabled());
/// drop(store); // error: `store` is still borrowed by `view`
/// let _ = view;
/// ```
#[derive(Debug)]
pub struct Store {
    buf: StoreBuf,
    header: Header,
    /// Directory a manifest's shard file names resolve against.
    dir: PathBuf,
    /// Whether the container's section checksums have been verified.
    /// Publishes no other data (the buffer never changes), so it is
    /// read and set `Relaxed`.
    checked: AtomicBool,
    /// A manifest's shard file sizes, recorded by the first pass that
    /// read and validated every shard.
    shard_bytes: OnceLock<Vec<u64>>,
}

/// Summary of a store, as shown by `rdf info` (its [`fmt::Display`] is
/// the report). Present only after full validation: every listed
/// section — and, for a manifest, every shard file — passed its
/// checksums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Parsed fixed header.
    pub header: Header,
    /// Size of the file in bytes (for a manifest, the manifest alone).
    pub file_bytes: usize,
    /// `(tag, bytes)` per section, in file order, framing included.
    pub sections: Vec<(String, usize)>,
    /// The parsed shard directory, for a manifest.
    pub manifest: Option<Manifest>,
    /// Size of each shard file in bytes, in shard-index order (empty
    /// unless this is a manifest).
    pub shard_bytes: Vec<u64>,
}

impl Store {
    /// Open a store file, mapping it where the platform allows (see
    /// [`StoreBuf::open`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        let path = path.as_ref();
        Store::new(StoreBuf::open(path)?, parent_dir(path))
    }

    /// Open a store file into an owned buffer, never mapping it: a
    /// long-running process (the `rdf serve` daemon) must survive a
    /// file it serves being truncated under it.
    pub fn open_owned(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        let path = path.as_ref();
        Store::new(StoreBuf::read(path)?, parent_dir(path))
    }

    /// Wrap an in-memory file image (copied into an aligned buffer). A
    /// manifest's shard files resolve against the working directory.
    pub fn from_bytes(bytes: &[u8]) -> Result<Store, StoreError> {
        Store::new(StoreBuf::from_bytes(bytes), PathBuf::new())
    }

    /// Parse the header: a non-container is [`StoreError::BadMagic`],
    /// another format version (say, a version-1 graph store) is
    /// [`StoreError::UnsupportedVersion`].
    fn new(buf: StoreBuf, dir: PathBuf) -> Result<Store, StoreError> {
        let header = Container::parse_header(buf.as_slice())?;
        Ok(Store {
            buf,
            header,
            dir,
            checked: AtomicBool::new(false),
            shard_bytes: OnceLock::new(),
        })
    }

    /// Whether the file bytes come from a memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// `(FNV-1a 64 of the file image, file bytes)` when the image is the
    /// whole store — a key for caching the decoded graph that re-imports
    /// of identical data hit and rewritten files miss. `None` for a
    /// manifest, whose image does not cover its shard files.
    pub fn content_key(&self) -> Option<(u64, u64)> {
        (self.header.kind != KIND_MANIFEST).then(|| {
            let bytes = self.buf.as_slice();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            (h, bytes.len() as u64)
        })
    }

    /// Validate the whole store — container framing and checksums, and
    /// for a manifest its shard directory and every shard file — and
    /// summarise it. Works for every content kind.
    pub fn info(&self, rec: &Recorder) -> Result<StoreInfo, StoreError> {
        let c = self.container(rec)?;
        let (manifest, shard_bytes) = if self.header.kind == KIND_MANIFEST {
            let manifest = parse_manifest(&c)?;
            let sizes = self.validated_shards(&manifest, rec)?.to_vec();
            (Some(manifest), sizes)
        } else {
            (None, Vec::new())
        };
        Ok(StoreInfo {
            header: self.header,
            file_bytes: self.buf.len(),
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
            manifest,
            shard_bytes,
        })
    }

    /// Decode the graph and its dictionary, from a single-file graph
    /// store or from a manifest and its shards (loaded concurrently on
    /// up to `threads` workers; ignored for single files). Any other
    /// kind is [`StoreError::WrongContentKind`].
    ///
    /// The returned [`Vocab`] contains exactly the store's dictionary
    /// (dense ids, blank label at 0); the graph's label ids index it
    /// directly. No string is hashed per node or triple. The graph is
    /// identical for every layout and thread count, traced or not.
    /// Spans: `store.open` (first use of the handle), one
    /// `store.section` per decoded section and, for a manifest, one
    /// `shard.load` per shard file.
    pub fn graph(
        &self,
        threads: Threads,
        rec: &Recorder,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        let c = self.container(rec)?;
        if self.header.kind == KIND_MANIFEST {
            let manifest = parse_manifest(&c)?;
            let (vocab, graph, sizes) =
                stitch(&c, &manifest, &self.dir, threads, rec)?;
            let _ = self.shard_bytes.set(sizes);
            return Ok((vocab, graph));
        }
        let (vocab, view) = walk(&c, rec)?;
        let graph = view.to_graph();
        let bnam_body = c.section(TAG_BNAM)?;
        let blank_names = {
            let _sp = section_span(rec, "BNAM", bnam_body.len());
            decode_bnam(bnam_body, graph.node_count())?
        };
        Ok((vocab, RdfGraph::from_raw_parts(graph, blank_names)))
    }

    /// Decode the dictionary of a single-file graph store and serve the
    /// graph as a view whose id columns borrow from the store buffer —
    /// no owned triple vectors are materialised. Any other kind is
    /// [`StoreError::WrongContentKind`]. A view never decodes `BNAM`.
    pub fn view(
        &self,
        rec: &Recorder,
    ) -> Result<(Vocab, TripleGraphView<'_>), StoreError> {
        walk(&self.container(rec)?, rec)
    }

    /// Open a manifest for **streaming refinement**: decode its node
    /// labels and keep the shard directory, so [`StoreShards`] serves
    /// one shard's columns at a time. Every shard file is read and
    /// checksummed here, once (one `shard.crc` span each), unless an
    /// earlier call on this handle already did; corruption therefore
    /// surfaces before any refinement work starts. The recorder is
    /// retained, so later `shard.load` spans land in the same trace.
    /// Any other kind is [`StoreError::WrongContentKind`].
    pub fn shards(
        &self,
        rec: Arc<Recorder>,
    ) -> Result<StoreShards, StoreError> {
        let c = self.container(&rec)?;
        let manifest = parse_manifest(&c)?;
        let (_, labels, _) = decode_globals(&c, None, manifest.nodes, &rec)?;
        let labels = labels.into_owned();
        self.validated_shards(&manifest, &rec)?;
        Ok(StoreShards::new(self.dir.clone(), manifest.shards, labels, rec))
    }

    /// [`Store::graph`] untraced. Kept only because the `perfbench`
    /// helper crate calls it; drop it when that crate next changes.
    pub fn read_graph(
        &self,
        threads: Threads,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        self.graph(threads, &Recorder::disabled())
    }

    /// [`Store::graph`]. Kept only because the `perfbench` helper crate
    /// calls it; drop it when that crate next changes.
    pub fn read_graph_traced(
        &self,
        threads: Threads,
        rec: &Recorder,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        self.graph(threads, rec)
    }

    /// The container, checksummed on first use: the first call verifies
    /// every section CRC inside a `store.open` span; later calls only
    /// re-walk the section framing.
    fn container(&self, rec: &Recorder) -> Result<Container<'_>, StoreError> {
        let bytes = self.buf.as_slice();
        if self.checked.load(Ordering::Relaxed) {
            return Container::parse_trusted(bytes);
        }
        let mut open = rec.span("store.open");
        open.field("bytes", bytes.len());
        let c = Container::parse(bytes)?;
        self.checked.store(true, Ordering::Relaxed);
        Ok(c)
    }

    /// Every shard file's size, validating the shards first unless a
    /// pass on this handle already has.
    fn validated_shards(
        &self,
        manifest: &Manifest,
        rec: &Recorder,
    ) -> Result<&[u64], StoreError> {
        if let Some(sizes) = self.shard_bytes.get() {
            return Ok(sizes);
        }
        let sizes = validate_shards(&self.dir, manifest, rec)?;
        Ok(self.shard_bytes.get_or_init(|| sizes))
    }
}

/// [`Store::open`]. Kept only because the `perfbench` helper crate
/// calls it; drop it when that crate next changes.
pub fn open_any(path: impl AsRef<Path>) -> Result<Store, StoreError> {
    Store::open(path)
}

fn parent_dir(path: &Path) -> PathBuf {
    path.parent().unwrap_or(Path::new("")).to_path_buf()
}

impl fmt::Display for StoreInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let version = self.header.version;
        if let Some(m) = &self.manifest {
            let shards: u64 = self.shard_bytes.iter().sum();
            let total = self.file_bytes as u64 + shards;
            writeln!(
                f,
                "RDFB v{version} sharded graph store ({} shards), {total} \
                 bytes total, checksums OK",
                m.shards.len(),
            )?;
            writeln!(
                f,
                "  nodes {} triples {} seed {:#018x}",
                m.nodes, m.triples, m.seed
            )?;
            for (k, (entry, bytes)) in
                m.shards.iter().zip(&self.shard_bytes).enumerate()
            {
                writeln!(
                    f,
                    "  shard {k}: {}  triples {}  {bytes} bytes",
                    entry.name, entry.triples
                )?;
            }
            return Ok(());
        }
        let [c0, c1, c2] = self.header.counts;
        let (kind, counts) = match self.header.kind {
            KIND_GRAPH => {
                ("graph store", format!("labels {c0} nodes {c1} triples {c2}"))
            }
            KIND_ARCHIVE => (
                "archive",
                format!("versions {c0} entities {c1} distinct-triples {c2}"),
            ),
            KIND_SHARD => (
                "graph shard (load via its .rdfm manifest)",
                format!("shard-index {c0} triples {c2}"),
            ),
            _ => ("unknown", format!("{c0} {c1} {c2}")),
        };
        writeln!(
            f,
            "RDFB v{version} {kind}, {} bytes, checksums OK",
            self.file_bytes
        )?;
        writeln!(f, "  {counts}")?;
        for (tag, bytes) in &self.sections {
            writeln!(f, "  section {tag}  {bytes} bytes")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_store::graph_to_bytes;
    use rdf_model::RdfGraphBuilder;

    #[test]
    fn one_handle_checksums_its_file_once() {
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8 9AB");
            b.finish()
        };
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let store = Store::from_bytes(&bytes).unwrap();
        let rec = Recorder::jsonl_writer(Box::new(std::io::sink()));
        // `rdf info --bisim` asks for both; the second reuses the
        // validated container.
        let info = store.info(&rec).unwrap();
        let (_, view) = store.view(&rec).unwrap();
        assert_eq!(info.file_bytes, bytes.len());
        assert_eq!(view.triple_count(), g.triple_count());
        let report = rec.finish().unwrap().unwrap();
        assert_eq!(report.span("store.open").unwrap().count, 1);
        assert_eq!(report.span("store.section").unwrap().count, 3);
    }
}
