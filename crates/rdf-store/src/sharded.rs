//! Sharded graph stores: one manifest (`.rdfm`) + N subject-hash
//! partitioned shard files (`.rdfb`).
//!
//! The I/O-efficient bisimulation literature (Luo et al., Hellings et
//! al.) scales past RAM by partitioning the store itself. This module
//! splits one graph across N shard files, so a load reads the shards
//! on parallel scoped threads and a refinement can read them one at a
//! time, per worker:
//!
//! * the **manifest** is an `RDFB` container of kind [`KIND_MANIFEST`]
//!   carrying the *global* sections once — `SHRD` (hash seed + shard
//!   directory), then the exact `DICT` / `NODE` / `BNAM` bodies the
//!   single-file writer produces. Node and label ids are therefore
//!   global and stable across shards: no cross-shard remap exists to
//!   get wrong;
//! * each **shard** is an `RDFB` container of kind [`KIND_SHARD`]
//!   holding one `TRPL` section — the sorted run of triples whose
//!   subject hashes to it (see [`shard_of`] for the exact mix);
//! * loading ([`crate::Store::graph`] on a manifest) reads shards
//!   concurrently ([`rdf_par::scoped_try_map`]) and stitches the runs
//!   with [`TripleGraph::from_sorted_runs`], yielding a graph
//!   **bit-identical to the single-file load** for every shard count
//!   and thread count; [`crate::Store::shards`] instead serves them one
//!   at a time ([`StoreShards`]).
//!
//! The manifest records each shard's file name, triple count and a CRC
//! over the *whole shard file*, so a missing, swapped or damaged shard
//! fails with a typed [`StoreError`] before any triple is believed.
//! The byte-level layout of manifests, shard files and the `shard_of`
//! hash is specified normatively in `docs/FORMAT.md` §5.

use crate::borrowed::decode_globals;
use crate::checksum::crc32;
use crate::container::{Container, ContainerWriter, KIND_MANIFEST, KIND_SHARD};
use crate::error::StoreError;
use crate::fixed::{
    check_pad8, decode_trpl, decode_trpl_cols, encode_trpl_into, pad8,
};
use crate::graph_store::{
    decode_bnam, encode_global_sections, section_span, TAG_BNAM, TAG_DICT,
    TAG_NODE, TAG_TRPL,
};
use crate::varint::{read_varint, read_varint_u32, write_varint};
use rdf_model::{
    LabelId, NodeId, RdfGraph, ShardColumns, ShardColumnsSource, Triple,
    TripleGraph, Vocab,
};
use rdf_obs::{Recorder, SpanGuard};
use rdf_par::{chunk_ranges, scoped_try_map, Threads};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tag of the manifest's shard-directory section.
pub const TAG_SHRD: [u8; 4] = *b"SHRD";

/// Default subject-hash seed written into new manifests ("RDFBSHRD").
pub const DEFAULT_SHARD_SEED: u64 = 0x5244_4642_5348_5244;

/// The shard a subject node id belongs to:
/// `splitmix64_mix(seed ^ subject · 0x9E3779B97F4A7C15) % shards`
/// (the multiply spreads dense node ids before the splitmix64
/// finalizer). Pure and stable — the same `(seed, subject, shards)`
/// triplet maps identically on every build, which is what makes
/// manifests portable.
pub fn shard_of(seed: u64, subject: NodeId, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let mut z =
        seed ^ u64::from(subject.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// One entry of the manifest's shard directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard file name, resolved relative to the manifest's directory.
    pub name: String,
    /// Triples stored in the shard.
    pub triples: u64,
    /// CRC-32 of the complete shard file.
    pub crc: u32,
}

/// A parsed, validated manifest (shard directory + global counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Subject-hash seed used to partition triples.
    pub seed: u64,
    /// Shard directory, in shard-index order.
    pub shards: Vec<ShardEntry>,
    /// Total node count of the stored graph.
    pub nodes: u64,
    /// Total triple count across all shards.
    pub triples: u64,
}

/// Writes a graph as a manifest plus N shard files.
#[derive(Debug, Clone, Copy)]
pub struct ShardedWriter {
    shards: usize,
    seed: u64,
}

impl ShardedWriter {
    /// A writer splitting into `shards` files with the default seed.
    pub fn new(shards: usize) -> Self {
        ShardedWriter {
            shards,
            seed: DEFAULT_SHARD_SEED,
        }
    }

    /// Override the subject-hash seed (recorded in the manifest).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Write `<manifest>` plus `<stem>-shard-<k>.rdfb` next to it and
    /// return every path written (manifest first). Shard files land on
    /// disk before the manifest, so an interrupted write never leaves a
    /// manifest pointing at absent shards.
    pub fn write(
        &self,
        manifest: impl AsRef<Path>,
        vocab: &Vocab,
        graph: &RdfGraph,
    ) -> Result<Vec<PathBuf>, StoreError> {
        let manifest = manifest.as_ref();
        if self.shards == 0 {
            return Err(StoreError::Corrupt(
                "shard count must be at least 1".into(),
            ));
        }
        let stem = manifest
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_owned());
        let dir = manifest.parent().unwrap_or(Path::new(""));

        let g = graph.graph();
        let mut buckets: Vec<Vec<Triple>> = vec![Vec::new(); self.shards];
        for &t in g.triples() {
            // Triples arrive sorted; pushing preserves order per bucket,
            // so every shard's run is sorted by construction.
            buckets[shard_of(self.seed, t.s, self.shards)].push(t);
        }

        let mut entries = Vec::with_capacity(self.shards);
        let mut paths = Vec::with_capacity(self.shards + 1);
        // One scratch buffer for every shard's TRPL body and one for
        // the framed file image: the per-shard loop allocates nothing
        // proportional to the shard count.
        let mut scratch = Vec::new();
        let mut bytes = Vec::new();
        for (k, bucket) in buckets.iter().enumerate() {
            let name = format!("{stem}-shard-{k}.rdfb");
            encode_trpl_into(&mut scratch, bucket);
            bytes.clear();
            let mut w = ContainerWriter::new();
            w.section(TAG_TRPL, scratch.as_slice());
            let counts = [k as u64, 0, bucket.len() as u64];
            w.finish(&mut bytes, KIND_SHARD, counts)?;
            let crc = crc32(&bytes);
            let path = dir.join(&name);
            std::fs::write(&path, &bytes)?;
            paths.push(path);
            entries.push(ShardEntry {
                name,
                triples: bucket.len() as u64,
                crc,
            });
        }

        let global = encode_global_sections(vocab, graph)?;
        let mut shrd = Vec::new();
        write_varint(&mut shrd, self.seed);
        write_varint(&mut shrd, entries.len() as u64);
        for e in &entries {
            write_varint(&mut shrd, e.name.len() as u64);
            shrd.extend_from_slice(e.name.as_bytes());
            write_varint(&mut shrd, e.triples);
            write_varint(&mut shrd, u64::from(e.crc));
        }
        pad8(&mut shrd);

        let mut bytes = Vec::new();
        let mut w = ContainerWriter::new();
        w.section(TAG_SHRD, shrd)
            .section(TAG_DICT, global.dict)
            .section(TAG_NODE, global.node)
            .section(TAG_BNAM, global.bnam);
        w.finish(
            &mut bytes,
            KIND_MANIFEST,
            [
                self.shards as u64,
                g.node_count() as u64,
                g.triple_count() as u64,
            ],
        )?;
        std::fs::write(manifest, &bytes)?;
        paths.insert(0, manifest.to_path_buf());
        Ok(paths)
    }
}

/// Save a graph as `<path>` (manifest) + `shards` shard files.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, Vocab};
/// use rdf_obs::Recorder;
/// use rdf_par::Threads;
/// use rdf_store::{save_sharded, Store};
///
/// let dir = std::env::temp_dir().join(format!(
///     "rdfb-doc-sharded-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let manifest = dir.join("g.rdfm");
/// save_sharded(&manifest, &vocab, &g, 3).unwrap();
///
/// let store = Store::open(&manifest).unwrap();
/// let rec = Recorder::disabled();
/// assert_eq!(store.info(&rec).unwrap().shard_bytes.len(), 3);
/// // The stitched load is bit-identical to a single-file load, at
/// // every thread count.
/// let (_, g2) = store.graph(Threads::Fixed(2), &rec).unwrap();
/// assert_eq!(g2.graph().triples(), g.graph().triples());
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub fn save_sharded(
    path: impl AsRef<Path>,
    vocab: &Vocab,
    graph: &RdfGraph,
    shards: usize,
) -> Result<Vec<PathBuf>, StoreError> {
    ShardedWriter::new(shards).write(path, vocab, graph)
}

/// Decode a manifest's graph: the global dictionary and node table from
/// the manifest container `c`, the shard `TRPL` runs read and validated
/// concurrently on up to `threads` scoped workers (one `shard.load`
/// span each), stitched with [`TripleGraph::from_sorted_runs`]. Also
/// returns each shard file's size, in shard order.
///
/// The result is bit-identical to the single-file load of the same
/// graph, for every shard count and every thread count; `threads` is
/// purely a wall-clock knob. On failure the error is the
/// lowest-indexed failing shard's, regardless of scheduling. Span
/// *counts* depend only on the shard count, never on `threads`.
pub(crate) fn stitch(
    c: &Container<'_>,
    manifest: &Manifest,
    dir: &Path,
    threads: Threads,
    rec: &Recorder,
) -> Result<(Vocab, RdfGraph, Vec<u64>), StoreError> {
    let (vocab, labels, kinds) =
        decode_globals(c, None, manifest.nodes, rec)?;
    let labels = labels.into_owned();
    let node_count = labels.len();

    // One task per worker, each draining a contiguous range of the
    // shard directory in order; flattening the per-task results in
    // task order recovers exact shard order, independent of thread
    // count.
    let workers = threads.resolve().min(manifest.shards.len()).max(1);
    let ranges = chunk_ranges(manifest.shards.len(), workers);
    let entries = &manifest.shards;
    let per_task: Vec<Vec<(u64, Vec<Triple>)>> =
        scoped_try_map(ranges, |worker, range| {
            range
                .map(|k| -> Result<_, StoreError> {
                    let entry = &entries[k];
                    let mut sp = rec.span("shard.load");
                    sp.field("shard", k);
                    sp.field("worker", worker);
                    let bytes = read_checked(dir, k, entry, &mut sp)?;
                    let run = decode_trpl(
                        trusted_trpl(&bytes, k, entry)?,
                        Some(entry.triples),
                    )
                    .map_err(|e| wrap_in_shard(entry, e))?;
                    Ok((bytes.len() as u64, run))
                })
                .collect()
        })?;
    let (shard_bytes, runs): (Vec<u64>, Vec<Vec<Triple>>) =
        per_task.into_iter().flatten().unzip();

    let graph = TripleGraph::from_sorted_runs(labels, kinds, runs)
        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
    if graph.triple_count() as u64 != manifest.triples {
        return Err(StoreError::Corrupt(format!(
            "stitched {} distinct triples but manifest records {} \
             (duplicate or overlapping shards)",
            graph.triple_count(),
            manifest.triples
        )));
    }
    let bnam_body = c.section(TAG_BNAM)?;
    let blank_names = {
        let _sp = section_span(rec, "BNAM", bnam_body.len());
        decode_bnam(bnam_body, node_count)?
    };
    Ok((vocab, RdfGraph::from_raw_parts(graph, blank_names), shard_bytes))
}

/// Read and validate every shard file of `manifest` once, in shard
/// order, one `shard.crc` span each; returns the file sizes. This is
/// the checksum pass behind [`crate::Store::info`] and
/// [`crate::Store::shards`].
pub(crate) fn validate_shards(
    dir: &Path,
    manifest: &Manifest,
    rec: &Recorder,
) -> Result<Vec<u64>, StoreError> {
    manifest
        .shards
        .iter()
        .enumerate()
        .map(|(k, entry)| {
            let mut sp = rec.span("shard.crc");
            sp.field("shard", k);
            read_checked(dir, k, entry, &mut sp).map(|b| b.len() as u64)
        })
        .collect()
}

/// Read shard `k` and validate it ([`check_shard`]), recording its
/// file `bytes` and the checksum time `crc_us` on `sp`.
fn read_checked(
    dir: &Path,
    k: usize,
    entry: &ShardEntry,
    sp: &mut SpanGuard<'_>,
) -> Result<Vec<u8>, StoreError> {
    let bytes = read_shard_file(dir, entry)?;
    sp.field("bytes", bytes.len());
    let crc_start = sp.enabled().then(Instant::now);
    check_shard(&bytes, k, entry)?;
    if let Some(start) = crc_start {
        sp.field("crc_us", start.elapsed().as_micros() as u64);
    }
    Ok(bytes)
}

/// Read one shard file, mapping absence to the typed
/// [`StoreError::MissingShard`].
fn read_shard_file(
    dir: &Path,
    entry: &ShardEntry,
) -> Result<Vec<u8>, StoreError> {
    let path = dir.join(&entry.name);
    match std::fs::read(&path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(StoreError::MissingShard {
                path: path.display().to_string(),
            })
        }
        Err(e) => Err(e.into()),
    }
}

/// A sharded store opened for shard-at-a-time streaming: the per-node
/// labels are resident, the triples stay on disk and are served one
/// shard at a time through the [`ShardColumnsSource`] implementation.
/// This is the external-memory entry point of the Luo et al. /
/// Hellings et al. construction: the triples are *never* stitched into
/// a resident [`TripleGraph`].
///
/// Built by [`crate::Store::shards`], which verifies every shard's
/// checksums **once**. Each [`StoreShards::load_shard`] call re-reads
/// its shard file but skips the whole-file CRC and section-checksum
/// passes (framing, lengths, kind, index and triple counts are still
/// checked, so a file swapped mid-run still fails with a typed
/// [`StoreError`]), so a 20-round fixpoint pays for 20 reads and one
/// validation. External modification of a store *during* a run is
/// outside the supported contract. Every load emits a `shard.load`
/// span (shard index, file bytes — no `crc_us`) into the recorder the
/// source was built with.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, ShardColumnsSource, Vocab};
/// use rdf_obs::Recorder;
/// use rdf_store::{save_sharded, Store};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join(format!(
///     "rdfb-doc-streaming-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let manifest = dir.join("g.rdfm");
/// save_sharded(&manifest, &vocab, &g, 2).unwrap();
///
/// let store = Store::open(&manifest).unwrap();
/// let shards = store.shards(Arc::new(Recorder::disabled())).unwrap();
/// assert_eq!(shards.node_count(), g.node_count());
/// let edges: usize = (0..shards.shard_count())
///     .map(|k| shards.load_shard(k).unwrap().len())
///     .sum();
/// assert_eq!(edges, g.triple_count());
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct StoreShards {
    dir: PathBuf,
    shards: Vec<ShardEntry>,
    labels: Vec<LabelId>,
    recorder: Arc<Recorder>,
}

impl StoreShards {
    pub(crate) fn new(
        dir: PathBuf,
        shards: Vec<ShardEntry>,
        labels: Vec<LabelId>,
        recorder: Arc<Recorder>,
    ) -> StoreShards {
        StoreShards {
            dir,
            shards,
            labels,
            recorder,
        }
    }

    /// Per-node label ids (index = node id), decoded from the global
    /// `NODE` section — the input to the initial labelling partition.
    pub fn labels(&self) -> &[LabelId] {
        &self.labels
    }
}

impl ShardColumnsSource for StoreShards {
    type Error = StoreError;

    fn node_count(&self) -> usize {
        self.labels.len()
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn load_shard(&self, k: usize) -> Result<ShardColumns, StoreError> {
        let entry = &self.shards[k];
        let mut sp = self.recorder.span("shard.load");
        sp.field("shard", k);
        let bytes = read_shard_file(&self.dir, entry)?;
        sp.field("bytes", bytes.len());
        // No checksum pass here: Store::shards validated this file
        // (whole-file CRC + section CRCs) exactly once, up front. The
        // columns feed ShardColumns with no intermediate Vec<Triple>.
        let body = trusted_trpl(&bytes, k, entry)?;
        let [s, p, o] = decode_trpl_cols(body, Some(entry.triples))
            .map_err(|e| wrap_in_shard(entry, e))?;
        Ok(ShardColumns::from_sorted_iter(s.iter().zip(&p).zip(&o).map(
            |((&s, &p), &o)| Triple::new(NodeId(s), NodeId(p), NodeId(o)),
        )))
    }
}

/// Parse the `SHRD` directory out of a manifest container and
/// cross-check it against the header counts. Any other content kind is
/// [`StoreError::WrongContentKind`].
pub(crate) fn parse_manifest(
    c: &Container<'_>,
) -> Result<Manifest, StoreError> {
    let header = *c.header();
    if header.kind != KIND_MANIFEST {
        return Err(StoreError::WrongContentKind {
            found: header.kind,
            expected: KIND_MANIFEST,
        });
    }
    let shrd = c.section(TAG_SHRD)?;
    let mut pos = 0usize;
    let seed = read_varint(shrd, &mut pos)?;
    let count = read_varint(shrd, &mut pos)?;
    if count == 0 {
        return Err(StoreError::Corrupt(
            "manifest lists zero shards".into(),
        ));
    }
    if count != header.counts[0] {
        return Err(StoreError::Corrupt(format!(
            "shard directory lists {count} shards but header records {}",
            header.counts[0]
        )));
    }
    // >= 3 bytes per entry; never trust the count for allocation.
    let cap = (count as usize).min((shrd.len() - pos) / 3 + 1);
    let mut shards: Vec<ShardEntry> = Vec::with_capacity(cap);
    let mut total: u64 = 0;
    for _ in 0..count {
        let name = crate::dict::read_string(shrd, &mut pos, "shard name")?;
        let triples = read_varint(shrd, &mut pos)?;
        let crc = read_varint_u32(shrd, &mut pos)?;
        // Manifests are untrusted input: a shard name must be a plain
        // file name, never a path — otherwise a crafted manifest could
        // direct reads outside the store directory (or at devices).
        if name.is_empty()
            || name == "."
            || name == ".."
            || name.contains('/')
            || name.contains('\\')
        {
            return Err(StoreError::Corrupt(format!(
                "shard name {name:?} is not a plain file name"
            )));
        }
        if shards.iter().any(|e| e.name == name) {
            return Err(StoreError::Corrupt(format!(
                "duplicate shard entry {name:?} in manifest"
            )));
        }
        total = total.checked_add(triples).ok_or_else(|| {
            StoreError::Corrupt("shard triple counts overflow u64".into())
        })?;
        shards.push(ShardEntry { name, triples, crc });
    }
    // Every payload is padded to 8; the tail must be zeros.
    check_pad8(shrd, pos, "SHRD section")?;
    if total != header.counts[2] {
        return Err(StoreError::Corrupt(format!(
            "shard directory totals {total} triples but header records {}",
            header.counts[2]
        )));
    }
    Ok(Manifest {
        seed,
        shards,
        nodes: header.counts[1],
        triples: header.counts[2],
    })
}

/// The one shard validation: the whole-file CRC its manifest entry
/// records, then the shard's own container (framing and section
/// checksums), kind and index. Errors from inside the container are
/// wrapped in [`StoreError::InShard`] so they name the failing file —
/// a bare section [`StoreError::ChecksumMismatch`] from one of N shards
/// would otherwise leave the operator guessing which file is damaged.
fn check_shard(
    bytes: &[u8],
    index: usize,
    entry: &ShardEntry,
) -> Result<(), StoreError> {
    let computed = crc32(bytes);
    if computed != entry.crc {
        return Err(StoreError::ShardChecksumMismatch {
            shard: entry.name.clone(),
            stored: entry.crc,
            computed,
        });
    }
    shard_trpl(bytes, index, entry, false)
        .map(drop)
        .map_err(|e| wrap_in_shard(entry, e))
}

/// The `TRPL` body of a shard file [`check_shard`] has already
/// validated this run: framing, kind and index are re-checked, the
/// section checksums are not.
fn trusted_trpl<'a>(
    bytes: &'a [u8],
    index: usize,
    entry: &ShardEntry,
) -> Result<&'a [u8], StoreError> {
    shard_trpl(bytes, index, entry, true).map_err(|e| wrap_in_shard(entry, e))
}

/// Name the failing shard file in an error bubbling out of its
/// container — unless the error already does.
fn wrap_in_shard(entry: &ShardEntry, e: StoreError) -> StoreError {
    match e {
        // These already name the shard file; don't double-wrap.
        e @ (StoreError::InShard { .. }
        | StoreError::ShardChecksumMismatch { .. }
        | StoreError::MissingShard { .. }) => e,
        e => StoreError::InShard {
            shard: entry.name.clone(),
            source: Box::new(e),
        },
    }
}

/// Parse a shard container, check its kind and index, and return its
/// `TRPL` body. A `trusted` parse skips the section-checksum
/// comparison ([`Container::parse_trusted`]).
fn shard_trpl<'a>(
    bytes: &'a [u8],
    index: usize,
    entry: &ShardEntry,
    trusted: bool,
) -> Result<&'a [u8], StoreError> {
    let c = if trusted {
        Container::parse_trusted(bytes)?
    } else {
        Container::parse(bytes)?
    };
    let header = *c.header();
    if header.kind != KIND_SHARD {
        return Err(StoreError::WrongContentKind {
            found: header.kind,
            expected: KIND_SHARD,
        });
    }
    if header.counts[0] != index as u64 {
        return Err(StoreError::Corrupt(format!(
            "shard {:?} records index {} but the manifest lists it at {index}",
            entry.name, header.counts[0]
        )));
    }
    c.section(TAG_TRPL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{open_any, Store};
    use rdf_model::RdfGraphBuilder;

    fn sample() -> (Vocab, RdfGraph) {
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8 9AB");
            b.bul("b1", "city", "Edinburgh");
            b.uul("ss", "name", "Sławek");
            b.uuu("ss", "employer", "ed-uni");
            b.finish()
        };
        (vocab, g)
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rdf-sharded-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8, 255] {
            for s in 0u32..200 {
                let k = shard_of(DEFAULT_SHARD_SEED, NodeId(s), shards);
                assert!(k < shards);
                assert_eq!(
                    k,
                    shard_of(DEFAULT_SHARD_SEED, NodeId(s), shards)
                );
            }
        }
        // Different seeds really do move subjects around (not a
        // constant function).
        let spread: Vec<usize> = (0..64)
            .map(|s| shard_of(1, NodeId(s), 8))
            .collect();
        assert!(spread.iter().any(|&k| k != spread[0]));
    }

    #[test]
    fn write_produces_manifest_plus_named_shards() {
        let dir = tmp("layout");
        let (vocab, g) = sample();
        let manifest = dir.join("v1.rdfm");
        let paths = save_sharded(&manifest, &vocab, &g, 3).unwrap();
        assert_eq!(paths.len(), 4);
        assert_eq!(paths[0], manifest);
        for (k, p) in paths[1..].iter().enumerate() {
            assert_eq!(
                p.file_name().unwrap().to_str().unwrap(),
                format!("v1-shard-{k}.rdfb")
            );
            assert!(p.exists());
        }
        let info = Store::open(&manifest)
            .unwrap()
            .info(&Recorder::disabled())
            .unwrap();
        let m = info.manifest.unwrap();
        assert_eq!(m.seed, DEFAULT_SHARD_SEED);
        assert_eq!(m.shards.len(), 3);
        assert_eq!(m.nodes, g.node_count() as u64);
        assert_eq!(m.triples, g.triple_count() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_shards_is_an_error() {
        let dir = tmp("zero");
        let (vocab, g) = sample();
        assert!(matches!(
            save_sharded(dir.join("z.rdfm"), &vocab, &g, 0),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_any_resolves_each_layout_and_errors_on_absence() {
        let dir = tmp("openany");
        let (vocab, g) = sample();
        let single = dir.join("g.rdfb");
        crate::save_graph(&single, &vocab, &g).unwrap();
        let manifest = dir.join("g.rdfm");
        save_sharded(&manifest, &vocab, &g, 2).unwrap();

        let a = open_any(&single).unwrap();
        assert!(a.content_key().is_some(), "single file is self-contained");
        let (_, g1) = a.read_graph(Threads::Fixed(1)).unwrap();
        let b = open_any(&manifest).unwrap();
        assert!(b.content_key().is_none(), "manifest resolves as sharded");
        let (_, g2) = b.read_graph(Threads::Fixed(2)).unwrap();
        assert_eq!(g1.graph().triples(), g2.graph().triples());

        match open_any(dir.join("absent.rdfm")) {
            Err(StoreError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
            }
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
        // Not a container at all.
        let nt = dir.join("x.nt");
        std::fs::write(&nt, "<u:s> <u:p> <u:o> .\n").unwrap();
        assert!(matches!(
            open_any(&nt),
            Err(StoreError::BadMagic { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_decode_errors_name_the_failing_file() {
        let (vocab, g) = sample();
        // A valid container of the wrong kind, with a matching
        // whole-file CRC: the failure happens *inside* the shard parse,
        // which must wrap it with the file name.
        let bytes = crate::graph_to_bytes(&vocab, &g).unwrap();
        let entry = ShardEntry {
            name: "v-shard-0.rdfb".into(),
            triples: g.triple_count() as u64,
            crc: crc32(&bytes),
        };
        match check_shard(&bytes, 0, &entry) {
            Err(StoreError::InShard { shard, source }) => {
                assert_eq!(shard, "v-shard-0.rdfb");
                assert!(matches!(
                    *source,
                    StoreError::WrongContentKind { .. }
                ));
            }
            other => {
                panic!("expected InShard(WrongContentKind), got {other:?}")
            }
        }
        // A whole-file CRC mismatch already names the shard — it must
        // stay the dedicated variant, not get double-wrapped.
        let bad = ShardEntry {
            crc: entry.crc ^ 1,
            ..entry
        };
        assert!(matches!(
            check_shard(&bytes, 0, &bad),
            Err(StoreError::ShardChecksumMismatch { .. })
        ));
    }

    #[test]
    fn traced_sharded_load_is_identical_and_counts_spans() {
        let dir = tmp("traced");
        let (vocab, g) = sample();
        let manifest = dir.join("t.rdfm");
        save_sharded(&manifest, &vocab, &g, 3).unwrap();
        let (_, g1) = Store::open(&manifest)
            .unwrap()
            .graph(Threads::Fixed(2), &Recorder::disabled())
            .unwrap();

        let rec =
            Recorder::jsonl_writer(Box::new(std::io::sink()));
        let (_, g2) = Store::open(&manifest)
            .unwrap()
            .graph(Threads::Fixed(2), &rec)
            .unwrap();
        assert_eq!(g1.graph().triples(), g2.graph().triples());
        let report = rec.finish().unwrap().unwrap();
        assert_eq!(report.span("shard.load").unwrap().count, 3);
        assert_eq!(report.span("store.open").unwrap().count, 1);
        assert_eq!(report.span("store.section").unwrap().count, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_validates_shard_crcs_once_per_run_not_per_round() {
        let dir = tmp("crc-once");
        let (vocab, g) = sample();
        let manifest = dir.join("c.rdfm");
        save_sharded(&manifest, &vocab, &g, 3).unwrap();
        let reader = Store::open(&manifest).unwrap();

        // Shared Vec<u8> sink so the raw JSONL lines can be inspected.
        #[derive(Clone, Default)]
        struct Buf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        let rec = Arc::new(Recorder::jsonl_writer(Box::new(buf.clone())));
        let store = reader.shards(Arc::clone(&rec)).unwrap();
        // The info summary reuses the validation pass: no second read.
        let info = reader.info(&rec).unwrap();
        assert_eq!(info.shard_bytes.len(), 3);
        // Simulate a 5-round fixpoint: every round re-reads every
        // shard. The checksum pass must NOT scale with rounds.
        let rounds = 5u64;
        for _ in 0..rounds {
            for k in 0..store.shard_count() {
                store.load_shard(k).unwrap();
            }
        }
        let report = rec.finish().unwrap().unwrap();
        assert_eq!(report.span("shard.crc").unwrap().count, 3);
        assert_eq!(report.span("shard.load").unwrap().count, rounds * 3);
        let text =
            String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        for line in text.lines().filter(|l| l.contains("shard.load")) {
            assert!(
                !line.contains("crc_us"),
                "per-round CRC pass resurfaced: {line}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_streaming_rejects_corrupt_shards_up_front() {
        let dir = tmp("crc-eager");
        let (vocab, g) = sample();
        let manifest = dir.join("e.rdfm");
        let paths = save_sharded(&manifest, &vocab, &g, 2).unwrap();
        // Flip one payload byte in the last shard file: the damage must
        // surface at shards(), before any refinement round.
        let shard_path = paths.last().unwrap();
        let mut bytes = std::fs::read(shard_path).unwrap();
        let mid = bytes.len() - 5;
        bytes[mid] ^= 0xff;
        std::fs::write(shard_path, &bytes).unwrap();
        let err = Store::open(&manifest)
            .unwrap()
            .shards(Arc::new(Recorder::disabled()))
            .unwrap_err();
        assert!(
            matches!(err, StoreError::ShardChecksumMismatch { .. }),
            "expected eager shard CRC failure, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn info_reports_shard_sizes() {
        let dir = tmp("info");
        let (vocab, g) = sample();
        let manifest = dir.join("v.rdfm");
        save_sharded(&manifest, &vocab, &g, 2).unwrap();
        let info = Store::open(&manifest)
            .unwrap()
            .info(&Recorder::disabled())
            .unwrap();
        assert_eq!(info.manifest.as_ref().unwrap().shards.len(), 2);
        assert_eq!(info.shard_bytes.len(), 2);
        assert!(info.shard_bytes.iter().all(|&b| b > 0));
        assert!(info.to_string().contains("sharded graph store (2 shards)"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
