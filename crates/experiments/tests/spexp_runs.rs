//! `spexp all --quick` runs every figure and ablation of the paper's
//! evaluation to completion and writes their JSON. What a figure's data
//! must say is not pinned here; this holds only that each one runs.

use std::path::Path;
use std::process::Command;

#[test]
fn spexp_all_quick_runs_every_figure() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures.json");
    let out = Command::new(env!("CARGO_BIN_EXE_spexp"))
        .args(["all", "--quick", "--json"])
        .arg(&json)
        .output()
        .expect("spawn spexp");
    assert!(
        out.status.success(),
        "spexp all --quick failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::metadata(&json).expect("figures JSON written");
    assert!(written.len() > 0, "empty figures JSON");
}
