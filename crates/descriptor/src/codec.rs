//! Per-file storage codecs.
//!
//! The paper assumes flat binary files whose record offsets are affine
//! functions of the loop indices. Real archives mix formats: the same
//! logical dataset may live as packed binary, delimited text, or
//! compressed segments. This module is the single home of that
//! knowledge: every file binding carries a [`CodecKind`], and the
//! layout/extraction layers translate between the *physical* bytes on
//! disk and the *logical* byte image — the packed little-endian
//! fixed-stride stream every downstream component (AFC math, segment
//! planning, pruning, cost analysis) continues to reason about.
//!
//! * [`CodecKind::FixedBinary`] — identity; physical == logical. The
//!   only affine codec, and the only one eligible for a `Safe`
//!   verification certificate (byte extents are provable from file
//!   sizes alone).
//! * [`CodecKind::DelimitedText`] — one CSV line per record instance,
//!   fields in layout order, typed by the descriptor's attribute
//!   table. Physical size is data-dependent, so verification can only
//!   certify it `Unverified`.
//! * [`CodecKind::ZstdSegment`] — the logical image stored as a zstd
//!   frame (RFC 8878). The encoder emits Raw and RLE blocks only — a
//!   valid, universally-decodable subset — and the decoder rejects
//!   entropy-coded blocks with a clean error rather than guessing.
//!   The I/O layer caches the decompressed image whole, so a cold
//!   query inflates the frame once and warm reads never touch it.

use std::collections::HashMap;

use dv_types::{DataType, DvError, Result};

use crate::model::{FileModel, ResolvedItem};

/// Storage codec of one `DATA` file binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// Packed little-endian binary; record offsets are affine in the
    /// loop indices. The default, and bit-identical to the pre-codec
    /// storage model.
    #[default]
    FixedBinary,
    /// Comma-separated text, one line per record instance.
    DelimitedText,
    /// The logical image compressed as a single zstd frame.
    ZstdSegment,
}

impl CodecKind {
    /// Parse a `CODEC` clause word (case-insensitive).
    pub fn parse(word: &str) -> Option<CodecKind> {
        match word.to_ascii_lowercase().as_str() {
            "binary" => Some(CodecKind::FixedBinary),
            "csv" => Some(CodecKind::DelimitedText),
            "zstd" => Some(CodecKind::ZstdSegment),
            _ => None,
        }
    }

    /// Canonical descriptor spelling.
    pub const fn descriptor_name(self) -> &'static str {
        match self {
            CodecKind::FixedBinary => "binary",
            CodecKind::DelimitedText => "csv",
            CodecKind::ZstdSegment => "zstd",
        }
    }

    /// True when physical offsets are affine in the loop indices —
    /// i.e. physical bytes *are* the logical image and byte extents
    /// can be verified from file sizes alone.
    pub const fn is_affine(self) -> bool {
        matches!(self, CodecKind::FixedBinary)
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.descriptor_name())
    }
}

/// Decode a file's physical bytes into its logical image.
///
/// `FixedBinary` copies; `ZstdSegment` inflates the frame;
/// `DelimitedText` parses and re-packs using the file's resolved
/// layout and the dataset's attribute types.
pub fn decode_physical(
    kind: CodecKind,
    file: &FileModel,
    attr_types: &HashMap<String, DataType>,
    physical: &[u8],
) -> Result<Vec<u8>> {
    match kind {
        CodecKind::FixedBinary => Ok(physical.to_vec()),
        CodecKind::ZstdSegment => {
            let promised = typed_size(&typed_layout(&file.layout, attr_types)?);
            zstd_decompress(physical, Some(promised))
                .map_err(|e| DvError::Runtime(format!("zstd file `{}`: {e}", file.rel_path)))
        }
        CodecKind::DelimitedText => {
            let text = std::str::from_utf8(physical).map_err(|e| {
                DvError::Runtime(format!("CSV file `{}` is not valid UTF-8: {e}", file.rel_path))
            })?;
            csv_decode(file, attr_types, text)
        }
    }
}

/// Encode a logical image into a file's physical bytes (the inverse of
/// [`decode_physical`]; used by datagen's transcoding emitters).
pub fn encode_logical(
    kind: CodecKind,
    file: &FileModel,
    attr_types: &HashMap<String, DataType>,
    logical: &[u8],
) -> Result<Vec<u8>> {
    match kind {
        CodecKind::FixedBinary => Ok(logical.to_vec()),
        CodecKind::ZstdSegment => Ok(zstd_compress(logical)),
        CodecKind::DelimitedText => csv_encode(file, attr_types, logical).map(String::into_bytes),
    }
}

// ---------------------------------------------------------------------------
// Record-stream walking
// ---------------------------------------------------------------------------

/// One attribute run of a record: the attributes' names (for error
/// messages) beside their types, resolved once per decode.
type Record<'a> = [(&'a str, DataType)];

/// A file's resolved layout with every attribute run typed up front,
/// so walking the record stream costs no name lookup per cell.
enum TypedItem<'a> {
    Record(Vec<(&'a str, DataType)>),
    Loop { iters: u64, body: Vec<TypedItem<'a>> },
}

/// Resolve `items` against the attribute table. `CHUNKED` layouts are
/// data-dependent and rejected (they are restricted to the `binary`
/// codec at resolution time).
fn typed_layout<'a>(
    items: &'a [ResolvedItem],
    attr_types: &HashMap<String, DataType>,
) -> Result<Vec<TypedItem<'a>>> {
    items
        .iter()
        .map(|item| match item {
            ResolvedItem::Attrs(attrs) => attrs
                .iter()
                .map(|a| Ok((a.as_str(), attr_type(attr_types, a)?)))
                .collect::<Result<_>>()
                .map(TypedItem::Record),
            ResolvedItem::Loop { lo, hi, step, body, .. } => Ok(TypedItem::Loop {
                iters: ResolvedItem::loop_iterations(*lo, *hi, *step),
                body: typed_layout(body, attr_types)?,
            }),
            ResolvedItem::Chunked { index_path, .. } => Err(DvError::Runtime(format!(
                "CHUNKED layout (index `{index_path}`) has no record stream; \
                 only the binary codec supports it"
            ))),
        })
        .collect()
}

/// Byte size of the logical image `items` describes — the number
/// [`FileModel::expected_size`] derives from the attribute-size table,
/// saturating instead of overflowing on a hostile loop nest.
fn typed_size(items: &[TypedItem<'_>]) -> u64 {
    items.iter().fold(0u64, |total, item| {
        total.saturating_add(match item {
            TypedItem::Record(r) => r.iter().map(|(_, ty)| ty.size() as u64).sum(),
            TypedItem::Loop { iters, body } => iters.saturating_mul(typed_size(body)),
        })
    })
}

/// Walk the layout in storage order, invoking `f` once per record
/// instance with the record's typed attribute run.
fn for_each_record<'a>(
    items: &[TypedItem<'a>],
    f: &mut impl FnMut(&Record<'a>) -> Result<()>,
) -> Result<()> {
    for item in items {
        match item {
            TypedItem::Record(r) => f(r)?,
            TypedItem::Loop { iters, body } => {
                for _ in 0..*iters {
                    for_each_record(body, f)?;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

fn cell_to_string(ty: DataType, bytes: &[u8]) -> String {
    match ty {
        DataType::Char => (bytes[0] as i8).to_string(),
        DataType::Short => i16::from_le_bytes([bytes[0], bytes[1]]).to_string(),
        DataType::Int => i32::from_le_bytes(bytes.try_into().unwrap()).to_string(),
        DataType::Long => i64::from_le_bytes(bytes.try_into().unwrap()).to_string(),
        DataType::Float => {
            let v = f32::from_le_bytes(bytes.try_into().unwrap());
            // `{}` is shortest-round-trip for finite floats; non-finite
            // payload bits survive only through the hex escape.
            if v.is_finite() {
                format!("{v}")
            } else {
                format!("0x{:08x}", v.to_bits())
            }
        }
        DataType::Double => {
            let v = f64::from_le_bytes(bytes.try_into().unwrap());
            if v.is_finite() {
                format!("{v}")
            } else {
                format!("0x{:016x}", v.to_bits())
            }
        }
    }
}

fn cell_from_str(ty: DataType, cell: &str, out: &mut Vec<u8>) -> Result<()> {
    let bad = |what: &str| DvError::Runtime(format!("CSV cell `{cell}` is not a valid {what}"));
    let cell = cell.trim();
    match ty {
        DataType::Char => out.push(cell.parse::<i8>().map_err(|_| bad("char"))? as u8),
        DataType::Short => {
            out.extend_from_slice(&cell.parse::<i16>().map_err(|_| bad("short int"))?.to_le_bytes())
        }
        DataType::Int => {
            out.extend_from_slice(&cell.parse::<i32>().map_err(|_| bad("int"))?.to_le_bytes())
        }
        DataType::Long => {
            out.extend_from_slice(&cell.parse::<i64>().map_err(|_| bad("long int"))?.to_le_bytes())
        }
        DataType::Float => {
            let v = if let Some(hex) = cell.strip_prefix("0x") {
                f32::from_bits(u32::from_str_radix(hex, 16).map_err(|_| bad("float"))?)
            } else {
                cell.parse::<f32>().map_err(|_| bad("float"))?
            };
            out.extend_from_slice(&v.to_le_bytes());
        }
        DataType::Double => {
            let v = if let Some(hex) = cell.strip_prefix("0x") {
                f64::from_bits(u64::from_str_radix(hex, 16).map_err(|_| bad("double"))?)
            } else {
                cell.parse::<f64>().map_err(|_| bad("double"))?
            };
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(())
}

fn attr_type(attr_types: &HashMap<String, DataType>, attr: &str) -> Result<DataType> {
    attr_types
        .get(attr)
        .copied()
        .ok_or_else(|| DvError::Runtime(format!("attribute `{attr}` has no declared type")))
}

/// Render a logical image as CSV text (one line per record instance).
pub fn csv_encode(
    file: &FileModel,
    attr_types: &HashMap<String, DataType>,
    logical: &[u8],
) -> Result<String> {
    let layout = typed_layout(&file.layout, attr_types)?;
    let mut out = String::new();
    let mut cursor = 0usize;
    for_each_record(&layout, &mut |record| {
        for (i, &(_, ty)) in record.iter().enumerate() {
            let end = cursor + ty.size();
            let bytes = logical.get(cursor..end).ok_or_else(|| {
                DvError::Runtime(format!(
                    "logical image of `{}` is truncated at byte {cursor}",
                    file.rel_path
                ))
            })?;
            if i > 0 {
                out.push(',');
            }
            out.push_str(&cell_to_string(ty, bytes));
            cursor = end;
        }
        out.push('\n');
        Ok(())
    })?;
    if cursor != logical.len() {
        return Err(DvError::Runtime(format!(
            "logical image of `{}` has {} trailing bytes past the layout",
            file.rel_path,
            logical.len() - cursor
        )));
    }
    Ok(out)
}

/// Parse CSV text back into the packed logical image, validating every
/// cell against the file's layout and attribute types.
pub fn csv_decode(
    file: &FileModel,
    attr_types: &HashMap<String, DataType>,
    text: &str,
) -> Result<Vec<u8>> {
    let layout = typed_layout(&file.layout, attr_types)?;
    let mut lines = text.lines();
    // Exactly the image's size for a well-formed file; a cell is at
    // least one character and a delimiter and at most eight bytes, so
    // a short or hostile text cannot reserve more than 4× its length.
    let justified = (text.len() as u64 + 1).saturating_mul(4);
    let mut out = Vec::with_capacity(typed_size(&layout).min(justified) as usize);
    let mut records = 0u64;
    for_each_record(&layout, &mut |record| {
        records += 1;
        let line = lines.next().ok_or_else(|| {
            DvError::Runtime(format!(
                "CSV file `{}` is truncated: record {records} missing",
                file.rel_path
            ))
        })?;
        let mut cells = line.split(',');
        for &(a, ty) in record {
            let cell = cells.next().ok_or_else(|| {
                DvError::Runtime(format!(
                    "CSV file `{}` record {records}: missing field for `{a}`",
                    file.rel_path
                ))
            })?;
            cell_from_str(ty, cell, &mut out).map_err(|e| {
                DvError::Runtime(format!("CSV file `{}` record {records}: {e}", file.rel_path))
            })?;
        }
        if cells.next().is_some() {
            return Err(DvError::Runtime(format!(
                "CSV file `{}` record {records}: too many fields",
                file.rel_path
            )));
        }
        Ok(())
    })?;
    if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
        return Err(DvError::Runtime(format!(
            "CSV file `{}` has trailing data past record {records}: `{extra}`",
            file.rel_path
        )));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// zstd (RFC 8878 subset: Raw and RLE blocks)
// ---------------------------------------------------------------------------

const ZSTD_MAGIC: u32 = 0xFD2F_B528;
/// Encoder chunk size; well under the 2^21-1 Block_Size ceiling.
const ZSTD_CHUNK: usize = 64 * 1024;

/// Compress `data` into a single zstd frame using Raw and RLE blocks.
/// Runs of a single byte value become RLE blocks (the real win on
/// sparse scientific output); everything else is stored Raw. Any
/// conforming zstd decoder can read the result.
pub fn zstd_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 32);
    out.extend_from_slice(&ZSTD_MAGIC.to_le_bytes());
    // Frame_Header_Descriptor: FCS_flag=3 (8-byte size), Single_Segment.
    out.push(0xE0);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());

    let push_block_header = |out: &mut Vec<u8>, last: bool, ty: u32, size: u32| {
        let word = (last as u32) | (ty << 1) | (size << 3);
        out.extend_from_slice(&word.to_le_bytes()[..3]);
    };

    if data.is_empty() {
        push_block_header(&mut out, true, 0, 0);
        return out;
    }
    let mut off = 0;
    while off < data.len() {
        let end = (off + ZSTD_CHUNK).min(data.len());
        let chunk = &data[off..end];
        let last = end == data.len();
        if chunk.len() > 1 && chunk.iter().all(|b| *b == chunk[0]) {
            push_block_header(&mut out, last, 1, chunk.len() as u32);
            out.push(chunk[0]);
        } else {
            push_block_header(&mut out, last, 0, chunk.len() as u32);
            out.extend_from_slice(chunk);
        }
        off = end;
    }
    out
}

/// Decompress a single zstd frame. Handles any frame header without a
/// dictionary; block payloads must be Raw or RLE (entropy-coded blocks
/// produce a clean error, not a wrong answer). The decoded length is
/// validated against the frame's declared content size, and that size
/// against `expected` (the layout's promise) when the caller has one.
///
/// The declared size is attacker-controlled, so nothing is reserved on
/// its word alone: a differing `expected` rejects the frame before any
/// allocation, and the output buffer starts no larger than the frame
/// itself and grows only as blocks actually arrive.
pub fn zstd_decompress(frame: &[u8], expected: Option<u64>) -> Result<Vec<u8>> {
    let err = |m: String| DvError::Runtime(format!("zstd: {m}"));
    let need = |n: usize, what: &str| err(format!("truncated frame: missing {what} ({n} bytes)"));

    let magic = frame.get(..4).ok_or_else(|| need(4, "magic"))?;
    if u32::from_le_bytes(magic.try_into().unwrap()) != ZSTD_MAGIC {
        return Err(err("bad magic number".into()));
    }
    let fhd = *frame.get(4).ok_or_else(|| need(1, "frame header descriptor"))?;
    if fhd & 0x08 != 0 {
        return Err(err("reserved frame header bit set".into()));
    }
    if fhd & 0x03 != 0 {
        return Err(err("dictionaries are not supported".into()));
    }
    let single_segment = fhd & 0x20 != 0;
    let checksum = fhd & 0x04 != 0;
    let fcs_flag = fhd >> 6;
    let mut pos = 5usize;
    if !single_segment {
        frame.get(pos).ok_or_else(|| need(1, "window descriptor"))?;
        pos += 1;
    }
    let fcs_len = match fcs_flag {
        0 => {
            if single_segment {
                1
            } else {
                return Err(err("unknown frame content size is not supported".into()));
            }
        }
        1 => 2,
        2 => 4,
        _ => 8,
    };
    let fcs_bytes =
        frame.get(pos..pos + fcs_len).ok_or_else(|| need(fcs_len, "frame content size"))?;
    pos += fcs_len;
    let mut fcs = 0u64;
    for (i, b) in fcs_bytes.iter().enumerate() {
        fcs |= (*b as u64) << (8 * i);
    }
    if fcs_len == 2 {
        fcs += 256;
    }

    if let Some(expected) = expected.filter(|e| *e != fcs) {
        return Err(err(format!("frame declares {fcs} bytes but the layout promises {expected}")));
    }

    let mut out = Vec::with_capacity(fcs.min(frame.len() as u64) as usize);
    loop {
        let hdr = frame.get(pos..pos + 3).ok_or_else(|| need(3, "block header"))?;
        pos += 3;
        let word = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], 0]);
        let last = word & 1 != 0;
        let ty = (word >> 1) & 3;
        let size = (word >> 3) as usize;
        let grown = out.len() + size;
        if grown as u64 > fcs {
            return Err(err(format!(
                "decoded {grown} bytes, more than the declared content size {fcs}"
            )));
        }
        match ty {
            0 => {
                let payload =
                    frame.get(pos..pos + size).ok_or_else(|| need(size, "raw block payload"))?;
                out.extend_from_slice(payload);
                pos += size;
            }
            1 => {
                let byte = *frame.get(pos).ok_or_else(|| need(1, "RLE block payload"))?;
                out.resize(out.len() + size, byte);
                pos += 1;
            }
            2 => return Err(err("entropy-coded (Compressed) blocks are not supported".into())),
            _ => return Err(err("reserved block type".into())),
        }
        if last {
            break;
        }
    }
    if checksum {
        frame.get(pos..pos + 4).ok_or_else(|| need(4, "content checksum"))?;
        pos += 4;
    }
    if pos != frame.len() {
        return Err(err(format!("{} trailing bytes after frame", frame.len() - pos)));
    }
    if out.len() as u64 != fcs {
        return Err(err(format!("decoded {} bytes but the frame declares {fcs}", out.len())));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use std::collections::BTreeMap;

    fn zstd_roundtrip(data: &[u8]) {
        let frame = zstd_compress(data);
        let back = zstd_decompress(&frame, None).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn zstd_roundtrips() {
        zstd_roundtrip(b"");
        zstd_roundtrip(b"hello world");
        zstd_roundtrip(&vec![0u8; 1_000_000]);
        let mixed: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8).collect();
        zstd_roundtrip(&mixed);
    }

    #[test]
    fn zstd_rle_compresses() {
        let data = vec![7u8; 512 * 1024];
        let frame = zstd_compress(&data);
        assert!(frame.len() < 64, "RLE frame should be tiny, got {}", frame.len());
    }

    #[test]
    fn zstd_rejects_corruption() {
        let mut frame = zstd_compress(b"some data here");
        // Bad magic.
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert!(zstd_decompress(&bad, None).is_err());
        // Truncated payload.
        frame.truncate(frame.len() - 3);
        assert!(zstd_decompress(&frame, None).is_err());
        // Entropy-coded block type.
        let mut ent = zstd_compress(b"x");
        ent[13] |= 0b100; // block type 2 in the first header byte
        assert!(zstd_decompress(&ent, None).unwrap_err().to_string().contains("entropy"));
    }

    #[test]
    fn zstd_hostile_content_size_is_clean_error() {
        // A 16-byte frame whose header declares 2^62 bytes: reserving
        // on the header's word would abort the process in the
        // allocator, which no `catch_unwind` contains.
        let mut frame = ZSTD_MAGIC.to_le_bytes().to_vec();
        frame.push(0xE0);
        frame.extend_from_slice(&(1u64 << 62).to_le_bytes());
        frame.extend_from_slice(&[0x01, 0x00, 0x00]); // last, Raw, 0 bytes
        assert_eq!(frame.len(), 16);
        let e = zstd_decompress(&frame, None).unwrap_err().to_string();
        assert!(e.contains("decoded 0 bytes but the frame declares"), "{e}");
        // A caller that knows the image size never gets as far as a buffer.
        let e = zstd_decompress(&frame, Some(24)).unwrap_err().to_string();
        assert!(e.contains("the layout promises 24"), "{e}");
        // An RLE block cannot inflate past the declared size either.
        let mut rle = zstd_compress(&[9u8; 4096]);
        rle[5..13].copy_from_slice(&8u64.to_le_bytes());
        let e = zstd_decompress(&rle, None).unwrap_err().to_string();
        assert!(e.contains("more than the declared content size 8"), "{e}");
    }

    #[test]
    fn zstd_image_size_is_checked_against_layout() {
        let (mut file, types) = toy_file();
        file.codec = CodecKind::ZstdSegment;
        let image = vec![3u8; 24]; // 3 records of (int, float)
        let frame = encode_logical(file.codec, &file, &types, &image).unwrap();
        assert_eq!(decode_physical(file.codec, &file, &types, &frame).unwrap(), image);
        let short = zstd_compress(&image[..16]);
        let e = decode_physical(file.codec, &file, &types, &short).unwrap_err().to_string();
        assert!(e.contains("zstd file `f`"), "{e}");
        assert!(e.contains("declares 16 bytes but the layout promises 24"), "{e}");
    }

    fn toy_file() -> (FileModel, HashMap<String, DataType>) {
        let layout = vec![ResolvedItem::Loop {
            var: "I".into(),
            lo: 1,
            hi: 3,
            step: 1,
            body: vec![ResolvedItem::Attrs(vec!["T".into(), "X".into()])],
        }];
        let file = FileModel {
            id: 0,
            dataset: "d".into(),
            node: 0,
            rel_path: "f".into(),
            env: Default::default(),
            layout,
            stored_attrs: vec!["T".into(), "X".into()],
            extents: BTreeMap::new(),
            codec: CodecKind::DelimitedText,
        };
        let types: HashMap<String, DataType> =
            [("T".to_string(), DataType::Int), ("X".to_string(), DataType::Float)]
                .into_iter()
                .collect();
        (file, types)
    }

    #[test]
    fn csv_roundtrips() {
        let (file, types) = toy_file();
        let mut logical = Vec::new();
        for i in 0..3i32 {
            logical.extend_from_slice(&i.to_le_bytes());
            logical.extend_from_slice(&(0.25f32 * i as f32 - 7.5).to_le_bytes());
        }
        let text = csv_encode(&file, &types, &logical).unwrap();
        assert_eq!(text.lines().count(), 3);
        let back = csv_decode(&file, &types, &text).unwrap();
        assert_eq!(back, logical);
    }

    #[test]
    fn csv_nonfinite_floats_roundtrip() {
        let (file, types) = toy_file();
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut logical = Vec::new();
        for (i, s) in specials.iter().enumerate() {
            logical.extend_from_slice(&(i as i32).to_le_bytes());
            logical.extend_from_slice(&s.to_le_bytes());
        }
        let text = csv_encode(&file, &types, &logical).unwrap();
        let back = csv_decode(&file, &types, &text).unwrap();
        assert_eq!(back, logical);
    }

    #[test]
    fn csv_truncation_and_bad_cells_error() {
        let (file, types) = toy_file();
        let e = csv_decode(&file, &types, "1,2.0\n").unwrap_err().to_string();
        assert!(e.contains("truncated"), "{e}");
        let e = csv_decode(&file, &types, "1,2.0\n2,oops\n3,4.0\n").unwrap_err().to_string();
        assert!(e.contains("oops"), "{e}");
        let e = csv_decode(&file, &types, "1,2.0\n2,3.0,9\n3,4.0\n").unwrap_err().to_string();
        assert!(e.contains("too many"), "{e}");
        let e = csv_decode(&file, &types, "1,2.0\n2,3.0\n3,4.0\n5,6.0\n").unwrap_err().to_string();
        assert!(e.contains("trailing"), "{e}");
    }

    #[test]
    fn codec_kind_parse() {
        assert_eq!(CodecKind::parse("CSV"), Some(CodecKind::DelimitedText));
        assert_eq!(CodecKind::parse("zstd"), Some(CodecKind::ZstdSegment));
        assert_eq!(CodecKind::parse("Binary"), Some(CodecKind::FixedBinary));
        assert_eq!(CodecKind::parse("lz4"), None);
        assert!(CodecKind::FixedBinary.is_affine());
        assert!(!CodecKind::DelimitedText.is_affine());
    }
}
