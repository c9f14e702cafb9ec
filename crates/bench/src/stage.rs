//! Dataset staging: generate once under `target/dv-bench-data`, reuse
//! across runs via a JSON marker of the generating configuration.

use std::path::PathBuf;

use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};

/// Root directory for staged benchmark datasets.
fn data_root() -> PathBuf {
    match std::env::var("DV_DATA") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            // Walk up from the crate dir to the workspace target dir.
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest.parent().unwrap().parent().unwrap().join("target").join("dv-bench-data")
        }
    }
}

/// Stage an Ipars dataset; returns `(base_dir, descriptor_text)`.
/// Regenerates only when the marker differs from `cfg`.
pub fn stage_ipars(key: &str, cfg: &IparsConfig, layout: IparsLayout) -> (PathBuf, String) {
    let base = data_root().join(key);
    let marker_path = base.join("marker.json");
    let marker = format!(
        "{{\"kind\":\"ipars\",\"layout\":\"{}\",\"realizations\":{},\"time_steps\":{},\
         \"grid_per_dir\":{},\"dirs\":{},\"nodes\":{},\"seed\":{}}}",
        layout.tag(),
        cfg.realizations,
        cfg.time_steps,
        cfg.grid_per_dir,
        cfg.dirs,
        cfg.nodes,
        cfg.seed,
    );
    if std::fs::read_to_string(&marker_path).map(|m| m == marker).unwrap_or(false) {
        return (base, ipars::descriptor(cfg, layout));
    }
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create staging dir");
    eprintln!(
        "[stage] generating ipars {} ({} rows, ~{} MiB) under {} ...",
        layout.label(),
        cfg.rows(),
        cfg.rows() * cfg.row_bytes() / (1024 * 1024),
        base.display()
    );
    let descriptor = ipars::generate(&base, cfg, layout).expect("generate ipars");
    std::fs::write(&marker_path, marker).unwrap();
    std::fs::write(base.join("descriptor.txt"), &descriptor).unwrap();
    (base, descriptor)
}

/// Stage a Titan dataset; returns `(base_dir, descriptor_text)`.
pub fn stage_titan(key: &str, cfg: &TitanConfig) -> (PathBuf, String) {
    let base = data_root().join(key);
    let marker_path = base.join("marker.json");
    let marker = format!(
        "{{\"kind\":\"titan\",\"points\":{},\"tiles\":[{},{},{}],\"nodes\":{},\"seed\":{}}}",
        cfg.points, cfg.tiles.0, cfg.tiles.1, cfg.tiles.2, cfg.nodes, cfg.seed,
    );
    if std::fs::read_to_string(&marker_path).map(|m| m == marker).unwrap_or(false) {
        return (base, titan::descriptor(cfg));
    }
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create staging dir");
    eprintln!(
        "[stage] generating titan ({} points, ~{} MiB) under {} ...",
        cfg.points,
        cfg.points as u64 * TitanConfig::record_bytes() / (1024 * 1024),
        base.display()
    );
    let descriptor = titan::generate(&base, cfg).expect("generate titan");
    std::fs::write(&marker_path, marker).unwrap();
    std::fs::write(base.join("descriptor.txt"), &descriptor).unwrap();
    (base, descriptor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_reuses_marker() {
        let cfg = IparsConfig::tiny();
        let key = format!("test-stage-{}", std::process::id());
        let (base, _) = stage_ipars(&key, &cfg, IparsLayout::I);
        let stamp = std::fs::metadata(base.join("marker.json")).unwrap().modified().unwrap();
        // Second call must not regenerate.
        let (_, _) = stage_ipars(&key, &cfg, IparsLayout::I);
        let stamp2 = std::fs::metadata(base.join("marker.json")).unwrap().modified().unwrap();
        assert_eq!(stamp, stamp2);
        // Changed config regenerates.
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let (_, _) = stage_ipars(&key, &cfg2, IparsLayout::I);
        let stamp3 = std::fs::metadata(base.join("marker.json")).unwrap().modified().unwrap();
        assert_ne!(stamp, stamp3);
        let _ = std::fs::remove_dir_all(&base);
    }
}
