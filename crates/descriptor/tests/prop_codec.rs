//! Property tests for the CSV codec: over random record layouts and
//! cell values `csv_decode(csv_encode(x)) == x` bit for bit, and a
//! damaged text either fails cleanly or decodes to a well-formed image
//! — it never panics.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use dv_descriptor::codec::{csv_decode, csv_encode, decode_physical};
use dv_descriptor::model::{FileModel, ResolvedItem};
use dv_descriptor::CodecKind;
use dv_types::DataType;

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
        layout,
        stored_attrs: Vec::new(),
        extents: BTreeMap::new(),
        codec: CodecKind::DelimitedText,
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
