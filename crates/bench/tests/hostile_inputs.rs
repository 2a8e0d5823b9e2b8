//! Hostile bin inputs end in a typed error and exit code 2 — never a
//! panic, an overflow, or memory exhaustion.

use std::process::Command;

/// An `autoscale --trace` file holding `0` and `1e300` spans ~1e297
/// control windows. The bin must refuse it before sizing anything by
/// the span (it used to panic with `capacity overflow`).
#[test]
fn autoscale_refuses_a_trace_spanning_1e300_seconds() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("span-1e300.trace");
    std::fs::write(&path, "0\n1e300\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_autoscale"))
        .arg("--trace")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("autoscale runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("control windows"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no partial document on stdout");
}
