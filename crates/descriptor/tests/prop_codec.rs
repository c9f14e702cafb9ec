//! Property tests for the CSV codec: over random record layouts and
//! cell values `csv_decode(csv_encode(x)) == x` bit for bit; a damaged
//! text either fails cleanly or decodes to a well-formed image — it
//! never panics; and on every text, damaged or not, the one-pass
//! decoder agrees with the reference decoder below, byte for byte and
//! error for error.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use dv_descriptor::codec::{csv_decode, csv_encode, decode_physical};
use dv_descriptor::model::{FileModel, FileShape, ResolvedItem};
use dv_descriptor::CodecKind;
use dv_types::{DataType, DvError, Result};

const TYPES: [DataType; 6] = [
    DataType::Char,
    DataType::Short,
    DataType::Int,
    DataType::Long,
    DataType::Float,
    DataType::Double,
];

/// Twelve attributes `A0..A11`, two of each type.
fn attr_types() -> HashMap<String, DataType> {
    (0..12).map(|i| (format!("A{i}"), TYPES[i % 6])).collect()
}

/// Records of 1–5 attributes under up to three levels of loops, some
/// of them empty (`lo > hi`) and some strided.
fn arb_items() -> impl Strategy<Value = Vec<ResolvedItem>> {
    let record = prop::collection::vec(0usize..12, 1..6)
        .prop_map(|attrs| ResolvedItem::Attrs(attrs.iter().map(|i| format!("A{i}")).collect()));
    let item = record.prop_recursive(3, 16, 2, |inner| {
        (-2i64..3, 0i64..4, 1i64..3, prop::collection::vec(inner, 1..3)).prop_map(
            |(lo, iters, step, body)| ResolvedItem::Loop {
                var: "I".into(),
                lo,
                hi: lo + (iters - 1) * step,
                step,
                body,
            },
        )
    });
    prop::collection::vec(item, 1..4)
}

fn file(layout: Vec<ResolvedItem>) -> FileModel {
    FileModel {
        id: 0,
        dataset: "d".into(),
        node: 0,
        rel_path: "f.csv".into(),
        env: Default::default(),
        codec: CodecKind::DelimitedText,
        shape: Arc::new(FileShape {
            id: 0,
            layout,
            stored_attrs: Vec::new(),
            loop_extents: Vec::new(),
        }),
    }
}

/// The attribute types of every cell of the record stream, in order.
fn cell_types(items: &[ResolvedItem], types: &HashMap<String, DataType>, out: &mut Vec<DataType>) {
    for item in items {
        match item {
            ResolvedItem::Attrs(attrs) => out.extend(attrs.iter().map(|a| types[a])),
            ResolvedItem::Loop { lo, hi, step, body, .. } => {
                for _ in 0..ResolvedItem::loop_iterations(*lo, *hi, *step) {
                    cell_types(body, types, out);
                }
            }
            ResolvedItem::Chunked { .. } => unreachable!("not generated"),
        }
    }
}

/// One cell's bytes from 64 random bits: extreme integers, signed
/// zeros, infinities, NaNs with payloads, and raw bit patterns.
fn cell_bytes(ty: DataType, r: u64, out: &mut Vec<u8>) {
    let pick = r % 8;
    let raw = r >> 3;
    match ty {
        DataType::Char => out.push(raw as u8),
        DataType::Short => out.extend_from_slice(
            &match pick {
                0 => i16::MIN,
                1 => i16::MAX,
                _ => raw as i16,
            }
            .to_le_bytes(),
        ),
        DataType::Int => out.extend_from_slice(
            &match pick {
                0 => i32::MIN,
                1 => i32::MAX,
                _ => raw as i32,
            }
            .to_le_bytes(),
        ),
        DataType::Long => out.extend_from_slice(
            &match pick {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => r as i64,
            }
            .to_le_bytes(),
        ),
        DataType::Float => out.extend_from_slice(
            &match pick {
                0 => 0.0f32.to_bits(),
                1 => (-0.0f32).to_bits(),
                2 => f32::INFINITY.to_bits(),
                3 => f32::NEG_INFINITY.to_bits(),
                // Quiet and signalling NaNs of either sign, payload kept.
                4 => 0x7f80_0001 | (raw as u32 & 0x807f_ffff),
                _ => raw as u32,
            }
            .to_le_bytes(),
        ),
        DataType::Double => out.extend_from_slice(
            &match pick {
                0 => 0.0f64.to_bits(),
                1 => (-0.0f64).to_bits(),
                2 => f64::INFINITY.to_bits(),
                3 => f64::NEG_INFINITY.to_bits(),
                4 => 0x7ff0_0000_0000_0001 | (r & 0x800f_ffff_ffff_ffff),
                _ => r.rotate_left(17),
            }
            .to_le_bytes(),
        ),
    }
}

/// A file over `layout` and a logical image for it drawn from `bits`.
fn file_and_image(layout: Vec<ResolvedItem>, bits: &[u64]) -> (FileModel, Vec<u8>) {
    let types = attr_types();
    let mut cells = Vec::new();
    cell_types(&layout, &types, &mut cells);
    let mut image = Vec::new();
    for (k, ty) in cells.iter().enumerate() {
        let r = bits[k % bits.len()] ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        cell_bytes(*ty, r, &mut image);
    }
    (file(layout), image)
}

// ---------------------------------------------------------------------------
// The reference decoder
// ---------------------------------------------------------------------------

/// Longest run of text an error message quotes (the codec's rule).
const QUOTE_MAX: usize = 64;

fn quote(s: &str) -> String {
    if s.len() <= QUOTE_MAX {
        return s.to_string();
    }
    let mut end = QUOTE_MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

fn cell_from_str(ty: DataType, cell: &str, out: &mut Vec<u8>) -> Result<()> {
    let bad =
        |what: &str| DvError::Runtime(format!("CSV cell `{}` is not a valid {what}", quote(cell)));
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

/// Every record of the layout in storage order, each as its typed
/// attribute run.
fn typed_records<'a>(
    items: &'a [ResolvedItem],
    types: &HashMap<String, DataType>,
    out: &mut Vec<Vec<(&'a str, DataType)>>,
) {
    for item in items {
        match item {
            ResolvedItem::Attrs(attrs) => {
                out.push(attrs.iter().map(|a| (a.as_str(), types[a])).collect())
            }
            ResolvedItem::Loop { lo, hi, step, body, .. } => {
                for _ in 0..ResolvedItem::loop_iterations(*lo, *hi, *step) {
                    typed_records(body, types, out);
                }
            }
            ResolvedItem::Chunked { .. } => unreachable!("not generated"),
        }
    }
}

/// The three-pass decoder the codec's one-pass scanner replaced —
/// `str::lines`, then `split(',')`, then `trim` + `str::parse` per
/// cell — with the codec's 64-byte quoting rule. The oracle the
/// scanner must match: the same image, or the same error message.
fn reference_csv_decode(
    file: &FileModel,
    attr_types: &HashMap<String, DataType>,
    text: &str,
) -> Result<Vec<u8>> {
    let mut layout = Vec::new();
    typed_records(file.layout(), attr_types, &mut layout);
    let mut lines = text.lines();
    let mut out = Vec::new();
    let mut records = 0u64;
    for record in &layout {
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
    }
    if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
        return Err(DvError::Runtime(format!(
            "CSV file `{}` has trailing data past record {records}: `{}`",
            file.rel_path,
            quote(extra)
        )));
    }
    Ok(out)
}

/// The span of the cell that holds byte `at` of `text`.
fn cell_span(text: &[u8], at: usize) -> std::ops::Range<usize> {
    let delim = |b: &u8| *b == b',' || *b == b'\n';
    let start = text[..at].iter().rposition(delim).map_or(0, |i| i + 1);
    let end = text[at..].iter().position(delim).map_or(text.len(), |i| at + i);
    start..end
}

/// A decimal of `n` random digits with the point anywhere (or nowhere)
/// and either sign.
fn long_mantissa(n: usize, mut r: u64) -> String {
    let mut s: String = (0..n)
        .map(|i| char::from(b'0' + ((r.rotate_left(7 * i as u32) ^ i as u64) % 10) as u8))
        .collect();
    let point = (r % (n as u64 + 2)) as usize;
    if point <= n {
        s.insert(point, '.');
    }
    r >>= 32;
    if r & 1 == 1 {
        s.insert(0, '-');
    }
    s
}

fn replace(text: &mut Vec<u8>, span: std::ops::Range<usize>, with: &str) {
    text.splice(span, with.bytes());
}

/// Damage `text` once: the kinds of `damaged_csv_errs_or_decodes_cleanly`
/// plus the spellings a hand-written or foreign CSV file carries.
fn damage(text: &mut Vec<u8>, kind: u8, at: u64, byte: u8, r: u64) {
    let at = (at % (text.len() as u64 + 1)) as usize;
    let cell = cell_span(text, at);
    match kind {
        0 => text.truncate(at),
        1 if at < text.len() => text[at] = byte,
        2 => text.insert(at, b','),
        3 => {
            if let Some(i) = text[at..].iter().position(|b| *b == b',') {
                text.remove(at + i);
            }
        }
        4 => text.extend_from_slice(if byte.is_multiple_of(2) { b"7,7\n" } else { b" \n\n" }),
        // `\r\n` line ends, everywhere or from `at` on.
        5 => {
            let from = if byte.is_multiple_of(2) { 0 } else { at };
            let mut crlf = text[..from].to_vec();
            for &b in &text[from..] {
                if b == b'\n' {
                    crlf.push(b'\r');
                }
                crlf.push(b);
            }
            *text = crlf;
        }
        // Blank trailing lines, and a last line without its `\n`.
        6 => match byte % 4 {
            0 => text.extend_from_slice(b"\n\n"),
            1 => text.extend_from_slice(b"\r\n\t \r\n"),
            2 => text.extend_from_slice(b"\n\r"),
            _ => {
                if text.last() == Some(&b'\n') {
                    text.pop();
                }
            }
        },
        // Spaces, tabs or a NUL around a cell.
        7 => {
            let pad = [" ", "\t", "  ", "\0"][byte as usize % 4];
            let i = if byte.is_multiple_of(2) { cell.start } else { cell.end };
            text.splice(i..i, pad.bytes());
        }
        // A `+` sign, or leading zeros after any sign.
        8 => text.insert(cell.start, b'+'),
        9 => {
            let i = cell.start + (text.get(cell.start) == Some(&b'-')) as usize;
            text.splice(i..i, "00".bytes().take(1 + byte as usize % 2));
        }
        // An exponent.
        10 => {
            let e = ["e3", "E-2", "e+1", "e0", "e-40", "e", "E400"][byte as usize % 7];
            text.splice(cell.end..cell.end, e.bytes());
        }
        // A mantissa of 14–20 digits.
        11 => replace(text, cell, &long_mantissa(14 + byte as usize % 7, r)),
        // A hex bit pattern, well- or ill-formed.
        12 => replace(
            text,
            cell,
            &match byte % 3 {
                0 => format!("0x{:08x}", r as u32),
                1 => format!("0x{r:016x}"),
                _ => "0x".to_string(),
            },
        ),
        // Infinities and NaNs in the spellings `str::parse` knows.
        13 => replace(
            text,
            cell,
            ["inf", "-inf", "NaN", "infinity", "-nan", "+Infinity"][byte as usize % 6],
        ),
        // A lone sign or point.
        _ => replace(text, cell, ["-", ".", "-.", "+", ""][byte as usize % 5]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn csv_roundtrip_is_bit_exact(
        layout in arb_items(),
        bits in prop::collection::vec(any::<u64>(), 64),
    ) {
        let types = attr_types();
        let (file, image) = file_and_image(layout, &bits);
        let sizes = types.iter().map(|(a, t)| (a.clone(), t.size())).collect();
        prop_assert_eq!(file.expected_size(&sizes), Some(image.len() as u64));
        let text = csv_encode(&file, &types, &image).unwrap();
        prop_assert_eq!(csv_decode(&file, &types, &text).unwrap(), image);
    }

    #[test]
    fn damaged_csv_errs_or_decodes_cleanly(
        layout in arb_items(),
        bits in prop::collection::vec(any::<u64>(), 64),
        damage in prop::collection::vec((0u8..5, any::<u64>(), any::<u8>()), 1..4),
    ) {
        let types = attr_types();
        let (file, image) = file_and_image(layout, &bits);
        let mut text = csv_encode(&file, &types, &image).unwrap().into_bytes();
        for (kind, at, byte) in damage {
            let at = (at % (text.len() as u64 + 1)) as usize;
            match kind {
                0 => text.truncate(at),
                1 if at < text.len() => text[at] = byte,
                2 => text.insert(at, b','),
                3 => {
                    // Drop the first comma at or after `at`.
                    if let Some(i) = text[at..].iter().position(|b| *b == b',') {
                        text.remove(at + i);
                    }
                }
                _ => text.extend_from_slice(if byte % 2 == 0 { b"7,7\n" } else { b" \n\n" }),
            }
        }
        // Whatever came out must be a whole image that survives its own
        // round trip; otherwise a clean error. Reaching here at all is
        // the no-panic half of the property.
        if let Ok(decoded) = decode_physical(CodecKind::DelimitedText, &file, &types, &text) {
            prop_assert_eq!(decoded.len(), image.len());
            let again = csv_encode(&file, &types, &decoded).unwrap();
            prop_assert_eq!(csv_decode(&file, &types, &again).unwrap(), decoded);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn decode_matches_reference_decoder(
        layout in arb_items(),
        bits in prop::collection::vec(any::<u64>(), 64),
        damages in prop::collection::vec((0u8..15, any::<u64>(), any::<u8>(), any::<u64>()), 0..4),
    ) {
        let types = attr_types();
        let (file, image) = file_and_image(layout, &bits);
        let mut text = csv_encode(&file, &types, &image).unwrap().into_bytes();
        for (kind, at, byte, r) in damages {
            damage(&mut text, kind, at, byte, r);
        }
        let decoded = decode_physical(CodecKind::DelimitedText, &file, &types, &text);
        match std::str::from_utf8(&text) {
            Ok(text) => match (decoded, reference_csv_decode(&file, &types, text)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (got, want) => panic!("decoder {got:?} but reference {want:?} on {text:?}"),
            },
            Err(_) => prop_assert!(decoded.unwrap_err().to_string().contains("not valid UTF-8")),
        }
    }
}
