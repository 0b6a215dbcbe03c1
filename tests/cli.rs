//! Integration tests of the `ldmo` command-line binary.

use std::process::Command;

fn ldmo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldmo"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ldmo_cli_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_lists_subcommands() {
    let out = ldmo().arg("help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for sub in [
        "generate",
        "info",
        "decompose",
        "optimize",
        "flow",
        "chip",
        "train",
        "serve",
        "client",
    ] {
        assert!(text.contains(sub), "help missing '{sub}'");
    }
}

#[test]
fn chip_demo_runs_and_writes_masks() {
    let dir = temp_dir("chip_demo");
    let prefix = dir.join("chip");
    let out = ldmo()
        .args([
            "chip",
            "--tiles",
            "2x1",
            "--seed",
            "11",
            "--tile-iters",
            "2",
            "--tile-candidates",
            "4",
            "--out",
            prefix.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tile grid:        2x1"), "stdout: {text}");
    assert!(text.contains("EPE violations:"), "stdout: {text}");
    for layer in 0..2 {
        let mask = dir.join(format!("chip_mask{layer}.pgm"));
        assert!(mask.exists(), "missing {}", mask.display());
    }
}

#[test]
fn chip_rejects_malformed_tile_grid() {
    let out = ldmo()
        .args(["chip", "--tiles", "0x3"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("COLSxROWS"), "stderr: {err}");
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = ldmo().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
}

#[test]
fn generate_info_decompose_roundtrip() {
    let dir = temp_dir("roundtrip");
    let out = ldmo()
        .args([
            "generate",
            "--seed",
            "9",
            "--count",
            "1",
            "--out",
            dir.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let layout_file = dir.join("layout_9_0.lay");
    assert!(layout_file.exists());

    let info = ldmo()
        .args(["info", layout_file.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("patterns:"));
    assert!(text.contains("DPL-compatible:"));
    assert!(text.contains("decomposition candidates:"));

    let decompose = ldmo()
        .args(["decompose", layout_file.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    assert!(decompose.status.success());
    let text = String::from_utf8_lossy(&decompose.stdout);
    assert!(text.contains("#0:"), "no candidates listed: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn optimize_rejects_wrong_assignment_length() {
    let dir = temp_dir("badassign");
    assert!(ldmo()
        .args([
            "generate",
            "--seed",
            "4",
            "--count",
            "1",
            "--out",
            dir.to_str().expect("utf8 path"),
        ])
        .status()
        .expect("runs")
        .success());
    let layout_file = dir.join("layout_4_0.lay");
    let out = ldmo()
        .args([
            "optimize",
            layout_file.to_str().expect("utf8 path"),
            "--assignment",
            "0",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("assignment covers"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn info_rejects_missing_file() {
    let out = ldmo()
        .args(["info", "/nonexistent/layout.lay"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(5), "missing files exit 5 (I/O)");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("layout"), "stderr: {err}");
}

#[test]
fn info_rejects_malformed_file_with_parse_exit_code() {
    let dir = temp_dir("malformed");
    let path = dir.join("bad.lay");
    std::fs::write(&path, "this is not a layout file\n").expect("write");
    let out = ldmo()
        .args(["info", path.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flow_and_optimize_refuse_an_oversized_layout_with_parse_exit_code() {
    // a 4 mm window rasterizes to 2e6 x 2e6 px at 2 nm/px: refused before
    // any raster is allocated, with a pointer to the tiled path
    let dir = temp_dir("oversized");
    let path = dir.join("huge.lay");
    std::fs::write(
        &path,
        "ldmo-layout v1\nwindow 0 0 4000000 4000000\n\
         pattern 40 40 104 104\npattern 160 40 224 104\n",
    )
    .expect("write");
    let path = path.to_str().expect("utf8 path");
    for args in [
        vec!["flow", path],
        vec!["optimize", path, "--assignment", "0,1"],
    ] {
        let out = ldmo().args(&args).output().expect("runs");
        assert_eq!(out.status.code(), Some(3), "{args:?} exits 3");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("ldmo chip"), "stderr: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_positional_argument_exits_with_usage_code() {
    let out = ldmo().arg("info").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ldmo info"));
}

#[test]
fn flow_rejects_missing_predictor_weights() {
    let dir = temp_dir("badweights");
    assert!(ldmo()
        .args([
            "generate",
            "--seed",
            "6",
            "--count",
            "1",
            "--out",
            dir.to_str().expect("utf8 path"),
        ])
        .status()
        .expect("runs")
        .success());
    let layout_file = dir.join("layout_6_0.lay");
    let out = ldmo()
        .args([
            "flow",
            layout_file.to_str().expect("utf8 path"),
            "--predictor",
            "/nonexistent/weights.bin",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(5), "missing weights exit 5 (I/O)");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("predictor"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_fault_spec_exits_with_fault_code() {
    let out = ldmo()
        .env("LDMO_FAULTS", "warp-core@3")
        .arg("help")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(7), "bad LDMO_FAULTS exits 7");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fault"), "stderr: {err}");
}

#[test]
fn wellformed_fault_spec_is_accepted() {
    // an installed plan whose coordinates never fire must not change a run
    let out = ldmo()
        .env("LDMO_FAULTS", "nan-grad@9999")
        .arg("help")
        .output()
        .expect("runs");
    assert!(out.status.success());
}
