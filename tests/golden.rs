//! The golden-file comparison shared by the snapshot suites
//! (`mod golden;` in `metrics_export.rs` and `golden_plans.rs`).

use std::path::PathBuf;

/// Compares `actual` against the committed `tests/golden/<name>`, or
/// rewrites the file when `UPDATE_GOLDEN` is set.
pub fn compare_golden(actual: &str, name: &str) {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        "tests",
        "golden",
        name,
    ]
    .iter()
    .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name} drifted from its golden snapshot; \
         run UPDATE_GOLDEN=1 cargo test --test {} and review the diff",
        env!("CARGO_CRATE_NAME")
    );
}
