//! Fixed-width `NODE`/`TRPL` section bodies and the 8-byte padding
//! rule of graph, manifest and shard containers.
//!
//! The layout trades a few bytes of padding for *decodability by
//! pointer cast*: `NODE` and `TRPL` bodies are 4-byte little-endian id
//! columns behind a 16-byte preamble, and **every** section payload
//! (including the varint `DICT`/`BNAM`/`SHRD`) is zero-padded to a
//! multiple of 8 bytes. Because the container header is 32 bytes and
//! each section frame 16, every payload then starts 8-aligned within
//! the file image — so a column in a mapped or 8-aligned buffer can be
//! served as `&[u32]` without a copy. The normative spec is
//! `docs/FORMAT.md` §3.
//!
//! Body shapes:
//!
//! * `NODE`: `count(u64 LE) · width(u8) · 7 zero bytes`, then one
//!   label-id column (`count × 4` bytes, zero-padded to 8);
//! * `TRPL`: same preamble, then **three** columns — subject,
//!   predicate, object — each `count × 4` bytes and each individually
//!   zero-padded to 8 (so every column starts 8-aligned).
//!
//! The width byte is always [`COLUMN_WIDTH`]; any other value is a
//! typed corruption error telling the operator to re-import. Pad bytes
//! must be zero ([`check_pad8`]).

use crate::error::StoreError;
use rdf_model::{LabelId, NodeId, Triple};

/// The width in bytes of every id column.
pub const COLUMN_WIDTH: u8 = 4;

/// Length of the fixed-section preamble (count + width + padding).
pub const FIXED_PREAMBLE: usize = 16;

/// Zero-pad `buf` to a multiple of 8 bytes (the universal payload
/// rule).
pub fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

/// Verify the padding rule at the end of a payload: from `pos` to
/// `body.len()` there are at most 7 bytes and all are zero.
pub fn check_pad8(body: &[u8], pos: usize, what: &str) -> Result<(), StoreError> {
    let tail = body.get(pos..).ok_or(StoreError::Truncated {
        what: "section padding",
    })?;
    if tail.len() >= 8 {
        return Err(StoreError::Corrupt(format!(
            "{what}: {} trailing bytes after body (max 7 pad bytes)",
            tail.len()
        )));
    }
    if tail.iter().any(|&b| b != 0) {
        return Err(StoreError::Corrupt(format!(
            "{what}: non-zero padding byte"
        )));
    }
    Ok(())
}

/// Write the 16-byte fixed-section preamble.
fn push_preamble(out: &mut Vec<u8>, count: u64) {
    out.extend_from_slice(&count.to_le_bytes());
    out.push(COLUMN_WIDTH);
    out.extend_from_slice(&[0u8; 7]);
}

/// Append one padded column of ids.
fn push_column(out: &mut Vec<u8>, ids: impl Iterator<Item = u32>) {
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    pad8(out);
}

/// Encode a `NODE` body (per-node label ids) into `out` (cleared
/// first — callers reuse one scratch buffer across sections).
pub fn encode_node_into(out: &mut Vec<u8>, labels: &[LabelId]) {
    out.clear();
    push_preamble(out, labels.len() as u64);
    push_column(out, labels.iter().map(|l| l.0));
}

/// Encode a `TRPL` body (three padded columns) into `out` (cleared
/// first). Triples must already be strictly ascending — the in-memory
/// invariant of every graph this crate persists.
pub fn encode_trpl_into(out: &mut Vec<u8>, triples: &[Triple]) {
    out.clear();
    push_preamble(out, triples.len() as u64);
    push_column(out, triples.iter().map(|t| t.s.0));
    push_column(out, triples.iter().map(|t| t.p.0));
    push_column(out, triples.iter().map(|t| t.o.0));
}

/// A parsed fixed-section preamble plus the offsets of its columns.
#[derive(Debug, Clone, Copy)]
pub struct FixedBody {
    /// Byte length of one column *without* its padding.
    pub col_len: usize,
    /// Byte length of one column *with* its padding to 8.
    pub col_stride: usize,
}

/// Parse and validate the preamble of a `NODE`/`TRPL` body: count fits
/// usize, width is [`COLUMN_WIDTH`], and the payload holds exactly
/// `columns` padded columns (plus nothing else).
pub fn parse_fixed_body(
    body: &[u8],
    columns: usize,
    expected: Option<u64>,
    what: &str,
) -> Result<FixedBody, StoreError> {
    let head = body.get(..FIXED_PREAMBLE).ok_or(StoreError::Truncated {
        what: "fixed section preamble",
    })?;
    let count = u64::from_le_bytes(head[0..8].try_into().unwrap());
    if let Some(exp) = expected {
        if count != exp {
            return Err(StoreError::Corrupt(format!(
                "{what}: record count {count} disagrees with header {exp}"
            )));
        }
    }
    let width = head[8];
    if width != COLUMN_WIDTH {
        return Err(StoreError::Corrupt(format!(
            "{what}: unsupported column width {width} (this build reads \
             only {COLUMN_WIDTH}); re-import the source data to rewrite \
             the file"
        )));
    }
    if head[9..].iter().any(|&b| b != 0) {
        return Err(StoreError::Corrupt(format!(
            "{what}: non-zero preamble padding"
        )));
    }
    let count = usize::try_from(count).map_err(|_| {
        StoreError::Corrupt(format!("{what}: record count exceeds usize"))
    })?;
    let overflow =
        || StoreError::Corrupt(format!("{what}: body length overflows"));
    let col_len = count
        .checked_mul(COLUMN_WIDTH as usize)
        .ok_or_else(overflow)?;
    let col_stride = col_len.div_ceil(8) * 8;
    let total = col_stride
        .checked_mul(columns)
        .and_then(|c| c.checked_add(FIXED_PREAMBLE))
        .ok_or_else(overflow)?;
    if body.len() < total {
        return Err(StoreError::Truncated {
            what: "fixed section column",
        });
    }
    if body.len() != total {
        return Err(StoreError::Corrupt(format!(
            "{what}: {} trailing bytes after fixed columns",
            body.len() - total
        )));
    }
    // Column pad bytes must be zero, column by column.
    for c in 0..columns {
        let start = FIXED_PREAMBLE + c * col_stride;
        let pad = &body[start + col_len..start + col_stride];
        if pad.iter().any(|&b| b != 0) {
            return Err(StoreError::Corrupt(format!(
                "{what}: non-zero column padding"
            )));
        }
    }
    Ok(FixedBody {
        col_len,
        col_stride,
    })
}

/// The raw (unpadded) bytes of column `c` of a parsed fixed body.
#[inline]
pub fn fixed_column<'a>(body: &'a [u8], fb: &FixedBody, c: usize) -> &'a [u8] {
    let start = FIXED_PREAMBLE + c * fb.col_stride;
    &body[start..start + fb.col_len]
}

/// Copy one column into owned `u32`s — for owned loads, and for
/// borrowed views on hosts where the bytes cannot be cast in place
/// (big-endian targets).
pub fn read_column(col: &[u8]) -> Vec<u32> {
    col.chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Decode a `NODE` body into owned label ids.
pub fn decode_node(
    body: &[u8],
    expected: Option<u64>,
) -> Result<Vec<LabelId>, StoreError> {
    let fb = parse_fixed_body(body, 1, expected, "NODE section")?;
    Ok(read_column(fixed_column(body, &fb, 0))
        .into_iter()
        .map(LabelId)
        .collect())
}

/// Decode a `TRPL` body into its three `u32` columns — the streaming
/// loader's entry point (it groups the columns into
/// [`rdf_model::ShardColumns`] without an intermediate triple vector).
pub fn decode_trpl_cols(
    body: &[u8],
    expected: Option<u64>,
) -> Result<[Vec<u32>; 3], StoreError> {
    let fb = parse_fixed_body(body, 3, expected, "TRPL section")?;
    Ok([0, 1, 2].map(|c| read_column(fixed_column(body, &fb, c))))
}

/// Decode a `TRPL` body into owned triples, verifying the
/// strictly-ascending on-disk contract.
pub fn decode_trpl(
    body: &[u8],
    expected: Option<u64>,
) -> Result<Vec<Triple>, StoreError> {
    let [s, p, o] = decode_trpl_cols(body, expected)?;
    let mut triples = Vec::with_capacity(s.len());
    for j in 0..s.len() {
        let t = Triple::new(NodeId(s[j]), NodeId(p[j]), NodeId(o[j]));
        if triples.last().is_some_and(|prev| *prev >= t) {
            return Err(StoreError::Corrupt(format!(
                "TRPL section: triples not strictly ascending at record {j}"
            )));
        }
        triples.push(t);
    }
    Ok(triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn node_round_trip() {
        for max in [5u32, 300, 70_000, u32::MAX] {
            let labels: Vec<LabelId> = (0..9u32)
                .map(|i| LabelId((u64::from(max) * u64::from(i) / 9) as u32))
                .collect();
            let mut body = Vec::new();
            encode_node_into(&mut body, &labels);
            assert_eq!(body.len() % 8, 0);
            assert_eq!(body[8], COLUMN_WIDTH);
            let back = decode_node(&body, Some(9)).unwrap();
            assert_eq!(back, labels);
        }
        let mut empty = Vec::new();
        encode_node_into(&mut empty, &[]);
        assert_eq!(empty.len(), FIXED_PREAMBLE);
        assert_eq!(decode_node(&empty, Some(0)).unwrap(), vec![]);
    }

    #[test]
    fn trpl_round_trip() {
        for max in [9u32, 2_000, 100_000] {
            let mut sorted: Vec<Triple> = (0..7u32)
                .map(|i| t(i * max / 7, (i + 1) % 5, max - i * (max / 7)))
                .collect();
            sorted.sort_unstable();
            sorted.dedup();
            let mut body = Vec::new();
            encode_trpl_into(&mut body, &sorted);
            assert_eq!(body.len() % 8, 0);
            let back = decode_trpl(&body, Some(sorted.len() as u64)).unwrap();
            assert_eq!(back, sorted);
        }
        let mut empty = Vec::new();
        encode_trpl_into(&mut empty, &[]);
        assert_eq!(decode_trpl(&empty, Some(0)).unwrap(), vec![]);
    }

    #[test]
    fn scratch_reuse_clears_between_sections() {
        let mut scratch = vec![0xAA; 64];
        encode_node_into(&mut scratch, &[LabelId(1), LabelId(2)]);
        let first = scratch.clone();
        encode_node_into(&mut scratch, &[LabelId(1), LabelId(2)]);
        assert_eq!(scratch, first);
    }

    #[test]
    fn corruption_is_typed() {
        let sorted = vec![t(0, 1, 2), t(1, 0, 300), t(1, 2, 3)];
        let mut body = Vec::new();
        encode_trpl_into(&mut body, &sorted);

        // Any width but 4 — including the 1 and 2 of older writers.
        for width in [1, 2, 3, 8] {
            let mut bad = body.clone();
            bad[8] = width;
            assert!(matches!(
                decode_trpl(&bad, None),
                Err(StoreError::Corrupt(m))
                    if m.contains("unsupported column width")
                        && m.contains("re-import")
            ));
        }

        // Truncation mid-record.
        assert!(matches!(
            decode_trpl(&body[..body.len() - 3], Some(3)),
            Err(StoreError::Truncated { .. }) | Err(StoreError::Corrupt(_))
        ));

        // Count mismatch vs header.
        assert!(matches!(
            decode_trpl(&body, Some(5)),
            Err(StoreError::Corrupt(m))
                if m.contains("disagrees with header 5")
        ));

        // Non-zero preamble padding.
        let mut bad = body.clone();
        bad[12] = 1;
        assert!(matches!(
            decode_trpl(&bad, None),
            Err(StoreError::Corrupt(m)) if m.contains("preamble padding")
        ));

        // Non-zero column padding (3 records × 4 bytes -> 4 pad bytes).
        let mut bad = body.clone();
        *bad.last_mut().unwrap() = 7;
        assert!(matches!(
            decode_trpl(&bad, None),
            Err(StoreError::Corrupt(m)) if m.contains("column padding")
        ));

        // Unsorted triples.
        let mut swapped = Vec::new();
        encode_trpl_into(&mut swapped, &[t(1, 0, 300), t(0, 1, 2)]);
        assert!(matches!(
            decode_trpl(&swapped, None),
            Err(StoreError::Corrupt(m)) if m.contains("ascending")
        ));

        // Trailing garbage after the columns.
        let mut long = body.clone();
        long.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_trpl(&long, None),
            Err(StoreError::Corrupt(m)) if m.contains("trailing")
        ));
    }

    #[test]
    fn pad8_and_check_pad8() {
        let mut v = vec![1u8, 2, 3];
        pad8(&mut v);
        assert_eq!(v.len(), 8);
        assert!(check_pad8(&v, 3, "test").is_ok());
        assert!(check_pad8(&v, 0, "test").is_err()); // 8 tail bytes
        v[5] = 9;
        assert!(matches!(
            check_pad8(&v, 3, "test"),
            Err(StoreError::Corrupt(m)) if m.contains("non-zero padding")
        ));
        assert!(check_pad8(&v, 99, "test").is_err());
    }
}
