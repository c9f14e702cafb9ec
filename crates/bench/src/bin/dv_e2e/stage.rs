//! Dataset staging. Each dataset lives in `<root>/<dataset>/` beside a
//! marker holding its generating configuration (seed included) and a
//! fingerprint of the descriptor and every data file. A run re-reads
//! the files to check the fingerprint — which also leaves them in the
//! page cache — and regenerates when anything differs. One copy per
//! dataset is kept, so a sweep over many seeds cannot fill the disk.

use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dv_datagen::{ipars, titan, IparsConfig, IparsLayout};
use dv_descriptor::CodecKind;

use crate::workloads::{Dataset, Sizes, DEFAULT_SEED};

/// Fingerprints of the full-size datasets at [`DEFAULT_SEED`]. A
/// mismatch means `dv-datagen` (or a codec encoder) now writes
/// different bytes: the *workload* changed, so numbers from before and
/// after are not comparable. Reported, never fatal — a later change
/// cannot edit this file to follow. `BENCHMARK.json` carries the same
/// values at the end of each workload's `why`.
const DEFAULT_SEED_FINGERPRINTS: [(Dataset, u64); 5] = [
    (Dataset::IparsL1, 0xB9D5_C59B_5322_E958),
    (Dataset::IparsL0, 0x9E91_50C0_148C_0C6F),
    (Dataset::IparsL4, 0xB391_346C_272D_E126),
    (Dataset::Titan, 0xAE64_6B83_B2B1_ED6E),
    (Dataset::CsvL1, 0x49C0_927E_86DE_2DFA),
];

pub fn recorded_fingerprint(dataset: Dataset) -> Option<u64> {
    DEFAULT_SEED_FINGERPRINTS.iter().find(|(d, _)| *d == dataset).map(|(_, print)| *print)
}

pub struct Staged {
    pub base: PathBuf,
    pub descriptor: String,
    /// Digest of the descriptor text and every data file.
    pub fingerprint: u64,
    pub files: usize,
    pub stored_bytes: u64,
    pub rows: u64,
    /// Seconds spent here (generation and/or verification).
    pub stage_s: f64,
    pub restaged: bool,
    /// `Some(expected)` when this is a full-size default-seed dataset
    /// whose fingerprint no longer matches the recorded one.
    pub drift_from: Option<u64>,
}

fn ipars_config_text(tag: &str, c: &IparsConfig) -> String {
    format!(
        "ipars {tag} realizations={} time_steps={} grid_per_dir={} dirs={} nodes={} seed={}",
        c.realizations, c.time_steps, c.grid_per_dir, c.dirs, c.nodes, c.seed
    )
}

fn config_text(dataset: Dataset, sizes: &Sizes) -> String {
    match dataset {
        Dataset::IparsL1 => ipars_config_text("layout-I binary", &sizes.ipars),
        Dataset::IparsL0 => ipars_config_text("L0 binary", &sizes.ipars),
        Dataset::IparsL4 => ipars_config_text("layout-IV binary", &sizes.ipars),
        Dataset::CsvL1 => ipars_config_text("layout-I csv", &sizes.csv),
        Dataset::Titan => {
            let t = &sizes.titan;
            format!(
                "titan points={} tiles={}x{}x{} nodes={} seed={}",
                t.points, t.tiles.0, t.tiles.1, t.tiles.2, t.nodes, t.seed
            )
        }
    }
}

fn generate(base: &Path, dataset: Dataset, sizes: &Sizes) -> dv_types::Result<String> {
    match dataset {
        Dataset::IparsL1 => ipars::generate(base, &sizes.ipars, IparsLayout::I),
        Dataset::IparsL0 => ipars::generate(base, &sizes.ipars, IparsLayout::L0),
        Dataset::IparsL4 => ipars::generate(base, &sizes.ipars, IparsLayout::IV),
        Dataset::CsvL1 => {
            ipars::generate_with_codec(base, &sizes.csv, IparsLayout::I, CodecKind::DelimitedText)
        }
        Dataset::Titan => titan::generate(base, &sizes.titan),
    }
}

fn rows(dataset: Dataset, sizes: &Sizes) -> u64 {
    match dataset {
        Dataset::Titan => sizes.titan.points as u64,
        Dataset::CsvL1 => sizes.csv.rows(),
        _ => sizes.ipars.rows(),
    }
}

/// Fold `bytes` into the running digest `h`, eight bytes at a time.
fn digest_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(last)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h ^ bytes.len() as u64
}

/// Stream one file through [`digest_bytes`]; returns `(digest, len)`.
fn digest_file(path: &Path) -> io::Result<(u64, u64)> {
    let mut f = File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let (mut h, mut len) = (0x6476_5F65_3265_0001u64, 0u64);
    loop {
        // Fill the buffer so every fold but the last sees whole words.
        let mut filled = 0;
        while filled < buf.len() {
            match f.read(&mut buf[filled..])? {
                0 => break,
                n => filled += n,
            }
        }
        if filled == 0 {
            return Ok((h, len));
        }
        h = digest_bytes(h, &buf[..filled]);
        len += filled as u64;
    }
}

fn data_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            data_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// `(fingerprint, file count, stored bytes)` of a staged dataset: the
/// descriptor text and the files under the node directories, in path
/// order. Files at the top of `base` (marker, oracle cache) are the
/// harness's own and not part of the dataset.
fn fingerprint(base: &Path, descriptor: &str) -> io::Result<(u64, usize, u64)> {
    let mut files = Vec::new();
    for entry in fs::read_dir(base)? {
        let path = entry?.path();
        if path.is_dir() {
            data_files(&path, &mut files)?;
        }
    }
    files.sort();
    let mut h = digest_bytes(0, descriptor.as_bytes());
    let mut bytes = 0u64;
    for path in &files {
        let rel = path.strip_prefix(base).unwrap_or(path).to_string_lossy().into_owned();
        let (d, len) = digest_file(path)?;
        h = digest_bytes(h ^ d, rel.as_bytes());
        bytes += len;
    }
    Ok((h, files.len(), bytes))
}

fn read_marker(base: &Path) -> Option<(String, u64)> {
    let text = fs::read_to_string(base.join("marker.txt")).ok()?;
    let mut lines = text.lines();
    let config = lines.next()?.strip_prefix("config=")?.to_string();
    let print = u64::from_str_radix(lines.next()?.strip_prefix("fingerprint=")?, 16).ok()?;
    Some((config, print))
}

/// Make `dataset` present and verified under `root`.
pub fn stage(root: &Path, dataset: Dataset, sizes: &Sizes) -> io::Result<Staged> {
    let start = Instant::now();
    let base = root.join(dataset.key());
    let config = config_text(dataset, sizes);

    let reuse = read_marker(&base).filter(|(c, _)| *c == config).and_then(|(_, want)| {
        let descriptor = fs::read_to_string(base.join("descriptor.txt")).ok()?;
        let got = fingerprint(&base, &descriptor).ok()?;
        (got.0 == want).then_some((descriptor, got))
    });
    let restaged = reuse.is_none();
    let (descriptor, (print, files, stored_bytes)) = match reuse {
        Some(found) => found,
        None => {
            if base.exists() {
                fs::remove_dir_all(&base)?;
            }
            fs::create_dir_all(&base)?;
            eprintln!("[stage] generating {config} under {}", base.display());
            let descriptor = generate(&base, dataset, sizes)
                .map_err(|e| io::Error::other(format!("generate {}: {e}", dataset.key())))?;
            fs::write(base.join("descriptor.txt"), &descriptor)?;
            let print = fingerprint(&base, &descriptor)?;
            // Write the new files back now: left dirty, the kernel
            // flushes them in the middle of the measurement.
            let mut files = Vec::new();
            data_files(&base, &mut files)?;
            for f in &files {
                File::open(f)?.sync_all()?;
            }
            fs::write(
                base.join("marker.txt"),
                format!("config={config}\nfingerprint={:016x}\n", print.0),
            )?;
            (descriptor, print)
        }
    };

    let drift_from = (sizes.full_size && sizes.seed == DEFAULT_SEED)
        .then(|| recorded_fingerprint(dataset))
        .flatten()
        .filter(|&expected| expected != print);
    if let Some(expected) = drift_from {
        eprintln!(
            "[stage] WORKLOAD CHANGED: {} fingerprint {print:016x} differs from the recorded \
             {expected:016x}; results are not comparable with earlier ones",
            dataset.key()
        );
    }
    Ok(Staged {
        base,
        descriptor,
        fingerprint: print,
        files,
        stored_bytes,
        rows: rows(dataset, sizes),
        stage_s: start.elapsed().as_secs_f64(),
        restaged,
        drift_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_content_length_and_tail() {
        let a = digest_bytes(1, b"0123456789");
        assert_eq!(a, digest_bytes(1, b"0123456789"));
        assert_ne!(a, digest_bytes(1, b"0123456788"));
        assert_ne!(a, digest_bytes(1, b"0123456789\0"));
        assert_ne!(digest_bytes(1, b""), digest_bytes(2, b""));
    }

    #[test]
    fn restages_when_a_file_or_the_seed_changes() {
        let root = std::env::temp_dir().join(format!("dv-e2e-stage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let sizes = Sizes::smoke(3);
        let first = stage(&root, Dataset::Titan, &sizes).unwrap();
        assert!(first.restaged && first.files == 4 && first.stored_bytes > 4000 * 32);
        let again = stage(&root, Dataset::Titan, &sizes).unwrap();
        assert!(!again.restaged);
        assert_eq!(again.fingerprint, first.fingerprint);

        // A data file edited behind the marker's back is caught.
        let mut files = Vec::new();
        data_files(&first.base.join("tnode0"), &mut files).unwrap();
        let victim = files.iter().find(|p| p.extension().is_some_and(|e| e == "dat")).unwrap();
        let mut bytes = fs::read(victim).unwrap();
        bytes[17] ^= 0x40;
        fs::write(victim, bytes).unwrap();
        let healed = stage(&root, Dataset::Titan, &sizes).unwrap();
        assert!(healed.restaged);
        assert_eq!(healed.fingerprint, first.fingerprint);

        let other = stage(&root, Dataset::Titan, &Sizes::smoke(4)).unwrap();
        assert!(other.restaged);
        assert_ne!(other.fingerprint, first.fingerprint);
        let _ = fs::remove_dir_all(&root);
    }
}
