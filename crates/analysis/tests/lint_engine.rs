//! Integration tests driving the token-based lint engine over the fixture
//! corpus in `tests/lint_fixtures/`: one known-bad and one known-good file
//! per rule, plus a non-match fixture proving that rule triggers inside
//! comments, doc comments and string literals never fire.

use hydra_analysis::lint::{lint_workspace, Finding, RULES};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

/// Where a fixture for `rule` must live inside the scratch workspace:
/// hot-path and hashing rules only apply under specific crates, layering
/// under a leaf crate; everything else lints the facade library.
fn placement(rule: &str) -> &'static str {
    match rule {
        "counter-arithmetic" => "crates/core/src/lib.rs",
        "crate-layering" => "crates/types/src/lib.rs",
        "std-hash-maps" => "crates/sim/src/lib.rs",
        _ => "src/lib.rs",
    }
}

/// Builds a scratch workspace containing `contents` at `rule`'s placement
/// and lints it.
fn lint_fixture(tag: &str, rule: &str, contents: &str) -> Vec<Finding> {
    let root = std::env::temp_dir().join(format!(
        "hydra-lint-fixture-{tag}-{rule}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    let target = root.join(placement(rule));
    fs::create_dir_all(target.parent().expect("placement has a parent")).expect("mkdir");
    if placement(rule) != "src/lib.rs" {
        // The facade root is always scanned; keep it clean.
        fs::create_dir_all(root.join("src")).expect("mkdir facade");
        fs::write(root.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").expect("facade");
    }
    fs::write(&target, contents).expect("write fixture");
    let findings = lint_workspace(&root).expect("lint scratch workspace");
    let _ = fs::remove_dir_all(&root);
    findings
}

#[test]
fn every_rule_has_a_bad_and_a_good_fixture() {
    for info in &RULES {
        let dir = fixture_root().join(info.id);
        assert!(dir.join("bad.rs").is_file(), "missing {}/bad.rs", info.id);
        assert!(dir.join("good.rs").is_file(), "missing {}/good.rs", info.id);
    }
}

#[test]
fn bad_fixtures_trigger_exactly_their_rule() {
    for info in &RULES {
        let path = fixture_root().join(info.id).join("bad.rs");
        let contents = fs::read_to_string(&path).expect("read bad fixture");
        let findings = lint_fixture("bad", info.id, &contents);
        assert!(
            findings.iter().any(|f| f.rule == info.id),
            "{}/bad.rs did not trigger {}: {findings:?}",
            info.id,
            info.id
        );
        assert!(
            findings.iter().all(|f| f.rule == info.id),
            "{}/bad.rs leaked findings from other rules: {findings:?}",
            info.id
        );
    }
}

#[test]
fn good_fixtures_lint_clean() {
    for info in &RULES {
        let path = fixture_root().join(info.id).join("good.rs");
        let contents = fs::read_to_string(&path).expect("read good fixture");
        let findings = lint_fixture("good", info.id, &contents);
        assert!(
            findings.is_empty(),
            "{}/good.rs should be clean: {findings:?}",
            info.id
        );
    }
}

#[test]
fn triggers_inside_comments_and_strings_never_fire() {
    let path = fixture_root().join("non_match.rs");
    let contents = fs::read_to_string(&path).expect("read non_match fixture");
    let findings = lint_fixture("nonmatch", "non-match", &contents);
    assert!(
        findings.is_empty(),
        "comment/string bait fired: {findings:?}"
    );
}

#[test]
fn bad_fixture_findings_carry_real_lines_and_hints() {
    let contents =
        fs::read_to_string(fixture_root().join("no-unwrap").join("bad.rs")).expect("read");
    let findings = lint_fixture("lines", "no-unwrap", &contents);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 6]);
    for f in &findings {
        assert!(!f.message.is_empty());
    }
}
