//! The generic `.rdfb` container: header + checksummed sections.
//!
//! A container is a 32-byte fixed header (magic `RDFB`, version,
//! content kind, section count, three kind-dependent u64 counts)
//! followed by sections framed as
//! `tag[4] · payload_len(u64) · crc32(u32) · payload`. The normative
//! byte-level specification — including the per-kind count meanings
//! and every validation rule — lives in `docs/FORMAT.md` (§1–§2) at
//! the repository root.
//!
//! Readers verify every checksum before any payload is interpreted, so a
//! flipped bit or a truncated download fails with a typed error instead
//! of materialising a wrong graph.
//!
//! The header version field is fixed per content kind: graph, manifest
//! and shard containers are version 2 (fixed-width `NODE`/`TRPL`
//! columns, 8-padded payloads — `docs/FORMAT.md` §3), archives keep
//! their version-1 framing. [`Container::parse_header`] rejects any
//! other pairing, so no reader ever sees a second body layout.

use crate::checksum::crc32;
use crate::error::StoreError;
use std::borrow::Cow;

/// The four magic bytes opening every container.
pub const MAGIC: [u8; 4] = *b"RDFB";

/// Format version of graph, manifest and shard containers: `NODE` and
/// `TRPL` bodies are 4-byte little-endian columns and every section
/// payload is zero-padded to a multiple of 8 bytes, so readers can
/// serve typed slices straight from the file image.
pub const FORMAT_VERSION: u16 = 2;

/// Format version of archive containers ([`KIND_ARCHIVE`]), whose
/// varint bodies predate the fixed-width layout and are unchanged.
pub const ARCHIVE_VERSION: u16 = 1;

/// The one section body layout graph stores have.
///
/// Kept only because the `perfbench` helper crate passes
/// `Layout::default()` to [`crate::StoreWriter::write_graph_layout`];
/// nothing in this workspace selects a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Fixed-width `NODE`/`TRPL` columns ([`FORMAT_VERSION`]).
    #[default]
    Fixed,
}

/// The container version written and accepted for a content kind:
/// [`ARCHIVE_VERSION`] for archives, [`FORMAT_VERSION`] for the rest.
pub fn version_for(kind: u8) -> u16 {
    if kind == KIND_ARCHIVE {
        ARCHIVE_VERSION
    } else {
        FORMAT_VERSION
    }
}

/// Content kind: a single dictionary-encoded triple graph.
pub const KIND_GRAPH: u8 = 1;

/// Content kind: a multi-version archive.
pub const KIND_ARCHIVE: u8 = 2;

/// Content kind: a sharded-store manifest (global dictionary + shard
/// directory; the triples live in [`KIND_SHARD`] files).
pub const KIND_MANIFEST: u8 = 3;

/// Content kind: one shard of a sharded graph store (a subject-hash
/// partition of the triple set; meaningless without its manifest).
pub const KIND_SHARD: u8 = 4;

/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 32;

/// Per-section overhead in bytes (tag + length + checksum).
pub const SECTION_OVERHEAD: usize = 16;

/// Parsed fixed header of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version (always [`version_for`] the kind once parsed).
    pub version: u16,
    /// Content kind ([`KIND_GRAPH`] or [`KIND_ARCHIVE`]).
    pub kind: u8,
    /// Number of sections that follow.
    pub sections: u8,
    /// Kind-dependent summary counts (see module docs).
    pub counts: [u64; 3],
}

/// Accumulates tagged sections, then writes the whole container.
///
/// Payloads are [`Cow`]s so hot writers (the sharded import loop) can
/// hand the same scratch buffer to successive sections without a fresh
/// allocation per section.
#[derive(Debug, Default)]
pub struct ContainerWriter<'a> {
    sections: Vec<([u8; 4], Cow<'a, [u8]>)>,
}

impl<'a> ContainerWriter<'a> {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section; order is preserved in the file. Accepts an
    /// owned `Vec<u8>` or a borrowed `&[u8]` (scratch reuse).
    pub fn section(
        &mut self,
        tag: [u8; 4],
        payload: impl Into<Cow<'a, [u8]>>,
    ) -> &mut Self {
        self.sections.push((tag, payload.into()));
        self
    }

    /// Serialise header and sections into `out`, stamping the version
    /// of `kind` ([`version_for`]).
    pub fn finish(
        self,
        out: &mut impl std::io::Write,
        kind: u8,
        counts: [u64; 3],
    ) -> Result<(), StoreError> {
        let n = u8::try_from(self.sections.len()).map_err(|_| {
            StoreError::Corrupt("more than 255 sections".into())
        })?;
        out.write_all(&MAGIC)?;
        out.write_all(&version_for(kind).to_le_bytes())?;
        out.write_all(&[kind, n])?;
        for c in counts {
            out.write_all(&c.to_le_bytes())?;
        }
        for (tag, payload) in &self.sections {
            out.write_all(tag)?;
            out.write_all(&(payload.len() as u64).to_le_bytes())?;
            out.write_all(&crc32(payload).to_le_bytes())?;
            out.write_all(payload)?;
        }
        Ok(())
    }
}

/// A parsed container over an in-memory byte buffer; every section's
/// checksum has been verified by the time parsing returns.
#[derive(Debug)]
pub struct Container<'a> {
    header: Header,
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> Container<'a> {
    /// Parse and fully validate a container (header fields, section
    /// framing, and every payload checksum).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        Self::parse_inner(bytes, true)
    }

    /// [`Container::parse`] minus the per-section checksum comparison:
    /// framing, lengths and header fields are still fully validated,
    /// but payload CRCs are *assumed* correct.
    ///
    /// Strictly for buffers whose checksums were already verified this
    /// run (the streaming refinement engine re-reads each shard file
    /// every round; [`crate::ShardedReader::open_streaming`] validates
    /// every shard once up front, so the per-round re-parse must not
    /// pay the checksum pass again). Never call this on bytes that have
    /// not been through a checksummed parse first.
    pub fn parse_trusted(bytes: &'a [u8]) -> Result<Self, StoreError> {
        Self::parse_inner(bytes, false)
    }

    fn parse_inner(
        bytes: &'a [u8],
        verify_crc: bool,
    ) -> Result<Self, StoreError> {
        let header = Self::parse_header(bytes)?;
        let mut pos = HEADER_LEN;
        let mut sections = Vec::with_capacity(header.sections as usize);
        for _ in 0..header.sections {
            let frame =
                bytes.get(pos..pos + SECTION_OVERHEAD).ok_or(
                    StoreError::Truncated {
                        what: "section header",
                    },
                )?;
            let tag: [u8; 4] = frame[0..4].try_into().unwrap();
            let len = u64::from_le_bytes(frame[4..12].try_into().unwrap());
            let stored = u32::from_le_bytes(frame[12..16].try_into().unwrap());
            let len = usize::try_from(len).map_err(|_| {
                StoreError::Corrupt("section length exceeds usize".into())
            })?;
            pos += SECTION_OVERHEAD;
            // The length field is not itself checksummed; a flipped bit
            // can make it huge, so the slice arithmetic must not overflow.
            let end = pos.checked_add(len).ok_or(StoreError::Truncated {
                what: "section payload",
            })?;
            let payload =
                bytes.get(pos..end).ok_or(StoreError::Truncated {
                    what: "section payload",
                })?;
            pos = end;
            if verify_crc {
                let computed = crc32(payload);
                if computed != stored {
                    return Err(StoreError::ChecksumMismatch {
                        section: tag,
                        stored,
                        computed,
                    });
                }
            }
            sections.push((tag, payload));
        }
        if pos != bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after final section",
                bytes.len() - pos
            )));
        }
        Ok(Container { header, sections })
    }

    /// Parse only the fixed header (no section walking) — enough for a
    /// cheap `info` on a large file. A version other than
    /// [`version_for`] the kind byte is [`StoreError::UnsupportedVersion`].
    pub fn parse_header(bytes: &[u8]) -> Result<Header, StoreError> {
        // Check the magic before the length, so a short non-container
        // file reports "not an RDFB container" rather than "truncated".
        if let Some(prefix) = bytes.get(..4) {
            let found: [u8; 4] = prefix.try_into().unwrap();
            if found != MAGIC {
                return Err(StoreError::BadMagic { found });
            }
        }
        let head = bytes.get(..HEADER_LEN).ok_or(StoreError::Truncated {
            what: "header",
        })?;
        let version = u16::from_le_bytes(head[4..6].try_into().unwrap());
        let kind = head[6];
        if version != version_for(kind) {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: version_for(kind),
            });
        }
        let sections = head[7];
        let mut counts = [0u64; 3];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = u64::from_le_bytes(
                head[8 + 8 * i..16 + 8 * i].try_into().unwrap(),
            );
        }
        Ok(Header {
            version,
            kind,
            sections,
            counts,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// All sections in file order.
    pub fn sections(&self) -> &[([u8; 4], &'a [u8])] {
        &self.sections
    }

    /// Payload of the first section with `tag`, or a typed error.
    pub fn section(&self, tag: [u8; 4]) -> Result<&'a [u8], StoreError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|&(_, p)| p)
            .ok_or(StoreError::MissingSection { section: tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.section(*b"AAAA", vec![1, 2, 3]);
        w.section(*b"BBBB", vec![]);
        let mut out = Vec::new();
        w.finish(&mut out, KIND_GRAPH, [10, 20, 30]).unwrap();
        out
    }

    #[test]
    fn write_parse_round_trip() {
        let bytes = sample();
        let c = Container::parse(&bytes).unwrap();
        assert_eq!(c.header().version, FORMAT_VERSION);
        assert_eq!(c.header().kind, KIND_GRAPH);
        assert_eq!(c.header().counts, [10, 20, 30]);
        assert_eq!(c.section(*b"AAAA").unwrap(), &[1, 2, 3]);
        assert_eq!(c.section(*b"BBBB").unwrap(), &[] as &[u8]);
        assert!(matches!(
            c.section(*b"ZZZZ"),
            Err(StoreError::MissingSection { .. })
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample();
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::UnsupportedVersion {
                found: 0xffff,
                ..
            })
        ));
    }

    #[test]
    fn payload_corruption_detected() {
        let mut bytes = sample();
        // AAAA's payload occupies the 3 bytes right after its frame.
        let a_payload = HEADER_LEN + SECTION_OVERHEAD;
        bytes[a_payload] ^= 0x40;
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::ChecksumMismatch { section, .. }) if section == *b"AAAA"
        ));
    }

    #[test]
    fn every_truncation_point_errors() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = Container::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::ChecksumMismatch { .. }
                        | StoreError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn finish_stamps_the_version_of_each_kind() {
        let scratch = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        for kind in [KIND_GRAPH, KIND_MANIFEST, KIND_SHARD, KIND_ARCHIVE] {
            let mut w = ContainerWriter::new();
            w.section(*b"AAAA", scratch.as_slice()); // borrowed payload
            let mut out = Vec::new();
            w.finish(&mut out, kind, [8, 0, 0]).unwrap();
            let c = Container::parse(&out).unwrap();
            assert_eq!(c.header().version, version_for(kind));
            assert_eq!(c.header().kind, kind);
            assert_eq!(c.section(*b"AAAA").unwrap(), scratch.as_slice());
        }
    }

    #[test]
    fn parse_header_rejects_another_kinds_version() {
        for kind in [KIND_GRAPH, KIND_MANIFEST, KIND_SHARD] {
            assert_eq!(version_for(kind), FORMAT_VERSION);
        }
        assert_eq!(version_for(KIND_ARCHIVE), ARCHIVE_VERSION);
        // The other kinds' version on an archive (and vice versa) is
        // rejected, naming the version this build expects.
        let mut archive = Vec::new();
        ContainerWriter::new()
            .finish(&mut archive, KIND_ARCHIVE, [0, 0, 0])
            .unwrap();
        archive[4] = FORMAT_VERSION as u8;
        assert!(matches!(
            Container::parse_header(&archive),
            Err(StoreError::UnsupportedVersion { found: 2, supported: 1 })
        ));
        let mut graph = sample();
        graph[4] = ARCHIVE_VERSION as u8;
        assert!(matches!(
            Container::parse_header(&graph),
            Err(StoreError::UnsupportedVersion { found: 1, supported: 2 })
        ));
    }

    #[test]
    fn version_zero_rejected() {
        let mut bytes = sample();
        bytes[4] = 0;
        bytes[5] = 0;
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(
            Container::parse(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }
}
