//! The workspace rules that rustc and clippy cannot express (DESIGN.md §13).
//!
//! * Every library crate root, vendored shims included, forbids `unsafe`
//!   and denies the policy lints that `clippy.toml` configures.
//! * Inter-crate `[dependencies]` follow the layering DAG in [`CRATE_DAG`];
//!   a `[dev-dependencies]` edge may not close a cycle with it.
//! * Each wire-format schema literal and each `hydra-serve-stats-v1`
//!   metric name is spelled out, in non-test library code, only in the file
//!   that defines its constant.
//!
//! Each check also runs on its known-bad and known-good fixture under
//! `tests/lint_fixtures/`, so a check that stops finding anything fails.

use std::fs;
use std::path::{Path, PathBuf};

/// The lint-level lines every library crate root carries, right after
/// `#![forbid(unsafe_code)]`.
const LINT_LEVELS: [&str; 4] = [
    "#![forbid(unsafe_code)]",
    "#![deny(clippy::unwrap_used, clippy::expect_used)]",
    "#![deny(clippy::print_stdout, clippy::print_stderr)]",
    "#![deny(clippy::disallowed_methods, clippy::disallowed_types)]",
];

/// The counter hot paths additionally deny narrowing casts.
const HOT_PATH_LEVEL: &str = "#![deny(clippy::cast_possible_truncation)]";
const HOT_PATH_CRATES: [&str; 3] = ["core", "baselines", "forensics"];

/// For every workspace crate (directory under `crates/`), the complete set
/// of workspace crates its `[dependencies]` may name. `types` sits at the
/// bottom; `telemetry` can never depend on `forensics` (the event stream
/// must not know who consumes it) and `core` never on `sim` (the tracker
/// stays host-agnostic).
const CRATE_DAG: &str = "\
types:
telemetry: types
profiler: types
dram: types
workloads: types
baselines: types
core: types telemetry profiler
faults: types core
sim: types dram workloads core telemetry profiler
engine: types dram core sim workloads profiler
forensics: types telemetry baselines
arena: types dram baselines core sim workloads
server: types telemetry dram core sim engine faults forensics profiler
bench: types dram engine sim core baselines workloads
analysis: types core dram engine sim workloads";

/// (literal, defining file): schema versions and stats metric names.
const SINGLE_SOURCE: [(&str, &str); 12] = [
    ("hydra-trace-v1", "crates/telemetry/src/sink.rs"),
    ("hydra-forensics-v1", "crates/forensics/src/incident.rs"),
    ("hydra-sweep-v1", "crates/arena/src/sweep.rs"),
    ("hydra-serve-v1", "crates/server/src/frame.rs"),
    ("hydra-serve-stats-v1", "crates/server/src/stats.rs"),
    ("hydra-profile-v2", "crates/profiler/src/differential.rs"),
    ("hydra-arena-v1", "crates/arena/src/leaderboard.rs"),
    ("ingest_us", "crates/server/src/stats.rs"),
    ("queue_wait_us", "crates/server/src/stats.rs"),
    ("publish_lag_us", "crates/server/src/stats.rs"),
    ("queue_depth", "crates/server/src/stats.rs"),
    ("uptime_micros", "crates/server/src/stats.rs"),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(rule: &str, file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(rule)
        .join(file);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn subdirs(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    out
}

/// `(crate, allowed dependencies)` for every line of [`CRATE_DAG`].
fn dag() -> impl Iterator<Item = (&'static str, Vec<&'static str>)> {
    CRATE_DAG.lines().filter_map(|line| {
        let (name, deps) = line.split_once(':')?;
        Some((name, deps.split_whitespace().collect()))
    })
}

fn allowed_deps(name: &str) -> Option<Vec<&'static str>> {
    dag().find(|(n, _)| *n == name).map(|(_, deps)| deps)
}

fn reaches(from: &str, to: &str) -> bool {
    from == to
        || allowed_deps(from)
            .unwrap_or_default()
            .iter()
            .any(|d| reaches(d, to))
}

/// Layering violations of crate `name` whose manifest is `manifest`.
fn layering_violations(name: &str, manifest: &str) -> Vec<String> {
    let Some(allowed) = allowed_deps(name) else {
        return vec![format!("crate `{name}` is not declared in CRATE_DAG")];
    };
    let mut section = "";
    let mut out = Vec::new();
    for (lineno, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let key = line.split(['=', ' ', '.']).next().unwrap_or("");
        let Some(dep) = key.strip_prefix("hydra-") else {
            continue;
        };
        let at = lineno + 1;
        match section {
            "[dependencies]" if !allowed.contains(&dep) => out.push(format!(
                "{name}:{at}: may not depend on `{dep}` (allowed: {allowed:?})"
            )),
            "[dev-dependencies]" if dep != name && reaches(dep, name) => out.push(format!(
                "{name}:{at}: dev-dependency `{dep}` closes a cycle with the DAG"
            )),
            _ => {}
        }
    }
    out
}

/// `(line, contents)` of every string literal in `src`, comments skipped.
fn string_literals(src: &str) -> Vec<(usize, String)> {
    let c: Vec<char> = src.chars().collect();
    let (mut i, mut line, mut out) = (0, 1, Vec::new());
    let ident = |k: usize| k > 0 && (c[k - 1].is_alphanumeric() || c[k - 1] == '_');
    // `r"…"` / `r#"…"#`: the number of hashes, if a raw string starts at k.
    let raw_hashes = |k: usize| {
        let h = c[k + 1..].iter().take_while(|&&ch| ch == '#').count();
        (c.get(k + 1 + h) == Some(&'"')).then_some(h)
    };
    while i < c.len() {
        match c[i] {
            '\n' => line += 1,
            '/' if c.get(i + 1) == Some(&'/') => {
                while i + 1 < c.len() && c[i + 1] != '\n' {
                    i += 1;
                }
            }
            '/' if c.get(i + 1) == Some(&'*') => {
                i += 2;
                while i + 1 < c.len() && !(c[i] == '*' && c[i + 1] == '/') {
                    line += usize::from(c[i] == '\n');
                    i += 1;
                }
                i += 1;
            }
            // A char literal ('x', '\'', '"'); anything else is a lifetime.
            '\'' if c.get(i + 1) == Some(&'\\') => {
                i += 3;
                while i < c.len() && c[i] != '\'' {
                    i += 1;
                }
            }
            '\'' if c.get(i + 2) == Some(&'\'') => i += 2,
            'r' if !ident(i) && raw_hashes(i).is_some() => {
                let hashes = raw_hashes(i).unwrap_or(0);
                let close = format!("\"{}", "#".repeat(hashes));
                let rest: String = c[i + 2 + hashes..].iter().collect();
                let body = rest[..rest.find(&close).unwrap_or(rest.len())].to_string();
                out.push((line, body.clone()));
                line += body.matches('\n').count();
                i += 1 + hashes + body.chars().count() + close.len();
            }
            '"' => {
                let (at, mut body) = (line, String::new());
                i += 1;
                while i < c.len() && c[i] != '"' {
                    if c[i] == '\\' {
                        i += 1;
                    }
                    line += usize::from(c.get(i) == Some(&'\n'));
                    body.extend(c.get(i));
                    i += 1;
                }
                out.push((at, body));
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Single-source violations in library file `rel` (its non-test part).
fn literal_repeats(rel: &str, src: &str) -> Vec<String> {
    let code = src.split("#[cfg(test)]").next().unwrap_or(src);
    let mut out = Vec::new();
    for (line, body) in string_literals(code) {
        for (literal, defining) in SINGLE_SOURCE {
            if body.contains(literal) && rel != defining {
                out.push(format!("{rel}:{line}: \"{literal}\" belongs to {defining}"));
            }
        }
    }
    out
}

fn library_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && path.file_name().is_some_and(|n| n != "bin") {
            library_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_library_root_forbids_unsafe_and_denies_the_policy_lints() {
    let root = workspace_root();
    let mut roots = vec![root.join("src/lib.rs")];
    for dir in ["crates", "vendor"] {
        roots.extend(
            subdirs(&root.join(dir))
                .iter()
                .map(|d| d.join("src/lib.rs")),
        );
    }
    assert!(roots.len() >= 18, "found only {} crate roots", roots.len());
    for lib in &roots {
        let text = fs::read_to_string(lib).unwrap_or_else(|e| panic!("{}: {e}", lib.display()));
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        for level in LINT_LEVELS {
            assert!(lines.contains(&level), "{} lacks `{level}`", lib.display());
        }
        let hot = HOT_PATH_CRATES
            .iter()
            .any(|c| lib.ends_with(format!("crates/{c}/src/lib.rs")));
        if hot {
            assert!(
                lines.contains(&HOT_PATH_LEVEL),
                "{} lacks `{HOT_PATH_LEVEL}`",
                lib.display()
            );
        }
    }
}

#[test]
fn the_declared_dag_is_closed_and_acyclic() {
    for (name, deps) in dag() {
        for dep in deps {
            assert!(allowed_deps(dep).is_some(), "{name} -> undeclared {dep}");
            assert!(!reaches(dep, name), "cycle through {name} -> {dep}");
        }
    }
    assert!(!reaches("telemetry", "forensics"));
    assert!(!reaches("core", "sim"));
    assert!(reaches("analysis", "telemetry"));
}

#[test]
fn every_member_manifest_follows_the_dag() {
    let members = subdirs(&workspace_root().join("crates"));
    assert_eq!(members.len(), dag().count(), "members vs CRATE_DAG");
    let mut violations = Vec::new();
    for dir in &members {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        violations.extend(layering_violations(&name, &manifest));
    }
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn the_layering_check_has_teeth() {
    let bad = layering_violations("types", &fixture("crate-layering", "bad.toml"));
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(
        bad[0].contains("`core`") && bad[1].contains("closes a cycle"),
        "{bad:?}"
    );
    assert!(layering_violations("types", &fixture("crate-layering", "good.toml")).is_empty());
    assert_eq!(layering_violations("mystery", "").len(), 1);
}

#[test]
fn schema_and_metric_literals_have_one_source() {
    let root = workspace_root();
    let mut files = Vec::new();
    library_sources(&root.join("src"), &mut files);
    for dir in subdirs(&root.join("crates")) {
        library_sources(&dir.join("src"), &mut files);
    }
    let mut violations = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        violations.extend(literal_repeats(&rel, &fs::read_to_string(file).unwrap()));
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());
    assert!(violations.is_empty(), "{violations:#?}");
    // The scan must reach each definition: a scanner lost in a comment or
    // a char literal would find nothing and pass.
    for (literal, defining) in SINGLE_SOURCE {
        let src = fs::read_to_string(root.join(defining)).unwrap();
        let found = string_literals(src.split("#[cfg(test)]").next().unwrap_or(&src));
        assert!(
            found.iter().any(|(_, body)| body == literal),
            "{defining} does not define \"{literal}\""
        );
    }
}

#[test]
fn the_literal_check_has_teeth() {
    for rule in ["schema-single-source", "metric-names-single-source"] {
        let bad = literal_repeats("crates/sim/src/lib.rs", &fixture(rule, "bad.rs"));
        assert_eq!(bad.len(), 1, "{rule}/bad.rs: {bad:?}");
        let good = literal_repeats("crates/sim/src/lib.rs", &fixture(rule, "good.rs"));
        assert!(good.is_empty(), "{rule}/good.rs: {good:?}");
    }
    // The defining file may spell its own literal.
    assert!(literal_repeats("crates/telemetry/src/sink.rs", "\"hydra-trace-v1\"").is_empty());
}

#[test]
fn string_literals_skip_comments_chars_and_lifetimes() {
    let src = "// \"a\"\n/* \"b\" */ fn f<'x>(_: &'x str) -> (char, char, &str, &str) {\n\
               ('\"', '\\'', \"c\\\"d\", r#\"e\"f\"#) }\n\"g\nh\"";
    let found = string_literals(src);
    let expect = [(3, "c\"d"), (3, "e\"f"), (4, "g\nh")];
    assert_eq!(found.len(), expect.len(), "{found:?}");
    for ((line, body), (want_line, want)) in found.iter().zip(expect) {
        assert_eq!((*line, body.as_str()), (want_line, want));
    }
}
