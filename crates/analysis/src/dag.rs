//! The declared crate-layering DAG and the `crate-layering` lint rule.
//!
//! The workspace is layered: `types` at the bottom, pure-model crates
//! (`dram`, `workloads`, `telemetry`, `baselines`) above it, the tracker
//! (`core`) above those, then simulation (`sim`), orchestration (`engine`)
//! and the observer crates (`forensics`, `bench`, `analysis`) on top. The
//! layering carries real guarantees — `telemetry` can never grow a
//! dependency on `forensics` (the event stream must not know who consumes
//! it), and `core` can never reach into `sim` (the tracker must stay
//! host-agnostic so it can be lifted into the 100M acts/sec hot path).
//!
//! [`CRATE_DAG`] is the policy: for every crate, the complete set of
//! workspace crates it may depend on. [`check_layering`] enforces it twice
//! over — against each `crates/*/Cargo.toml` `[dependencies]` table, and
//! against every `hydra_*` path that actually appears in non-test source
//! (so a dependency smuggled in through an existing manifest edge is still
//! caught). `[dev-dependencies]` are exempt from the layer ceiling (tests
//! may look downward-and-sideways) but must not close a cycle with the
//! declared DAG.

use std::fs;
use std::io;
use std::path::Path;

use crate::lex::TokenKind;
use crate::lint::{Finding, ScannedFile};

/// One crate's layering contract.
#[derive(Debug, Clone, Copy)]
pub struct CrateLayer {
    /// Crate directory name under `crates/` (package name minus `hydra-`).
    pub name: &'static str,
    /// The complete set of workspace crates this crate may depend on.
    pub deps: &'static [&'static str],
}

/// The declared dependency DAG — the single source of truth the
/// `crate-layering` rule enforces. Order is roughly bottom-up.
pub const CRATE_DAG: &[CrateLayer] = &[
    CrateLayer {
        name: "types",
        deps: &[],
    },
    CrateLayer {
        name: "telemetry",
        deps: &["types"],
    },
    CrateLayer {
        name: "profiler",
        deps: &["types"],
    },
    CrateLayer {
        name: "dram",
        deps: &["types"],
    },
    CrateLayer {
        name: "workloads",
        deps: &["types"],
    },
    CrateLayer {
        name: "baselines",
        deps: &["types"],
    },
    CrateLayer {
        name: "core",
        deps: &["types", "telemetry", "profiler"],
    },
    CrateLayer {
        name: "faults",
        deps: &["types", "core"],
    },
    CrateLayer {
        name: "sim",
        deps: &[
            "types",
            "dram",
            "workloads",
            "core",
            "telemetry",
            "profiler",
        ],
    },
    CrateLayer {
        name: "engine",
        deps: &["types", "dram", "core", "sim", "workloads", "profiler"],
    },
    CrateLayer {
        name: "forensics",
        deps: &["types", "telemetry", "baselines"],
    },
    CrateLayer {
        name: "arena",
        deps: &["types", "dram", "baselines", "core", "sim", "workloads"],
    },
    CrateLayer {
        name: "server",
        deps: &[
            "types",
            "telemetry",
            "dram",
            "core",
            "sim",
            "engine",
            "faults",
            "forensics",
            "profiler",
        ],
    },
    CrateLayer {
        name: "bench",
        deps: &[
            "types",
            "dram",
            "engine",
            "sim",
            "core",
            "baselines",
            "workloads",
        ],
    },
    CrateLayer {
        name: "analysis",
        deps: &[
            "types",
            "core",
            "dram",
            "engine",
            "faults",
            "sim",
            "workloads",
        ],
    },
];

/// The allowed dependency set for `name`, or `None` if the crate is not in
/// the DAG.
pub fn allowed_deps(name: &str) -> Option<&'static [&'static str]> {
    CRATE_DAG
        .iter()
        .find(|layer| layer.name == name)
        .map(|layer| layer.deps)
}

/// True if `from` can reach `to` through declared DAG edges.
pub fn reaches(from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    allowed_deps(from)
        .into_iter()
        .flatten()
        .any(|dep| reaches(dep, to))
}

/// Verifies the declared DAG itself is acyclic and closed (every declared
/// dependency is itself declared). Returns the offending description on
/// failure. Run by tests and `hydra-verify self-test`, so a bad edit to
/// [`CRATE_DAG`] cannot silently disable the rule.
pub fn validate_dag() -> Result<(), String> {
    for layer in CRATE_DAG {
        for dep in layer.deps {
            if allowed_deps(dep).is_none() {
                return Err(format!(
                    "crate `{}` depends on undeclared crate `{dep}`",
                    layer.name
                ));
            }
            if reaches(dep, layer.name) {
                return Err(format!(
                    "cycle: `{}` -> `{dep}` -> ... -> `{}`",
                    layer.name, layer.name
                ));
            }
        }
    }
    Ok(())
}

/// Enforces [`CRATE_DAG`] against manifests and sources under `root`,
/// appending `crate-layering` findings.
///
/// # Errors
///
/// Returns [`io::Error`] if the tree cannot be read.
pub fn check_layering(root: &Path, findings: &mut Vec<Finding>) -> io::Result<()> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Ok(());
    }
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                names.push(name.to_string());
            }
        }
    }
    names.sort();

    for name in &names {
        let crate_dir = crates_dir.join(name);
        let manifest = crate_dir.join("Cargo.toml");
        let Some(allowed) = allowed_deps(name) else {
            findings.push(Finding::new(
                "crate-layering",
                &manifest,
                0,
                format!(
                    "crate `{name}` is not declared in the layering DAG; add it to dag::CRATE_DAG with its allowed dependencies"
                ),
            ));
            continue;
        };

        // Manifest check: [dependencies] must stay within the ceiling;
        // [dev-dependencies] must not close a cycle.
        let mut dev_deps: Vec<String> = Vec::new();
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            let mut section = String::new();
            for (lineno, line) in text.lines().enumerate() {
                let trimmed = line.trim();
                if trimmed.starts_with('[') {
                    section = trimmed.trim_matches(['[', ']']).to_string();
                    continue;
                }
                let Some(dep) = dep_name(trimmed) else {
                    continue;
                };
                let Some(short) = dep.strip_prefix("hydra-") else {
                    continue;
                };
                match section.as_str() {
                    "dependencies" if !allowed.contains(&short) => {
                        findings.push(Finding::new(
                            "crate-layering",
                            &manifest,
                            lineno + 1,
                            format!(
                                "crate `{name}` must not depend on `{short}` (allowed: {allowed:?}); move shared code to a lower layer or extend dag::CRATE_DAG deliberately"
                            ),
                        ));
                    }
                    "dependencies" => {}
                    "dev-dependencies" => {
                        if reaches(short, name) && short != name.as_str() {
                            findings.push(Finding::new(
                                "crate-layering",
                                &manifest,
                                lineno + 1,
                                format!(
                                    "dev-dependency `{short}` of `{name}` closes a cycle with the declared DAG"
                                ),
                            ));
                        } else {
                            dev_deps.push(short.to_string());
                        }
                    }
                    _ => {}
                }
            }
        }

        // Source check: every `hydra_*` path in the crate's sources must
        // reference the crate itself, an allowed dependency, or (in test
        // modules only) a dev-dependency.
        let mut files = Vec::new();
        collect_rs(&crate_dir.join("src"), &mut files)?;
        files.sort();
        for file in &files {
            let text = fs::read_to_string(file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            let scanned = ScannedFile::new(file, &rel, &text);
            for i in 0..scanned.ts.code_len() {
                let Some(tok) = scanned.ts.code(i) else {
                    continue;
                };
                if tok.kind != TokenKind::Ident {
                    continue;
                }
                let Some(short) = scanned
                    .ts
                    .code_text(i)
                    .and_then(|t| t.strip_prefix("hydra_"))
                else {
                    continue;
                };
                if allowed_deps(short).is_none() {
                    continue; // not a workspace crate name
                }
                let ok = short == name.as_str()
                    || allowed.contains(&short)
                    || (scanned.in_test(i) && dev_deps.iter().any(|d| d == short));
                if !ok {
                    scanned.emit(
                        findings,
                        "crate-layering",
                        tok.line,
                        format!(
                            "`{name}` references `hydra_{short}` but the layering DAG only allows {allowed:?}"
                        ),
                    );
                }
            }
        }
    }
    Ok(())
}

/// The dependency key of a Cargo.toml table line (`hydra-core.workspace =
/// true`, `rand = {{ path = ... }}`), if any.
fn dep_name(line: &str) -> Option<&str> {
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let key = line
        .split(['=', ' ', '\t'])
        .next()?
        .split('.')
        .next()?
        .trim();
    if key.is_empty() {
        None
    } else {
        Some(key)
    }
}

/// Recursively collects `.rs` files (no-op if `dir` is absent).
fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn declared_dag_is_acyclic_and_closed() {
        validate_dag().unwrap();
    }

    #[test]
    fn telemetry_never_reaches_forensics() {
        assert!(!reaches("telemetry", "forensics"));
        assert!(!reaches("core", "sim"));
        assert!(reaches("engine", "types"));
        assert!(reaches("analysis", "telemetry")); // via core
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hydra-dag-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_violations_are_flagged_with_lines() {
        let root = scratch("manifest");
        std::fs::create_dir_all(root.join("crates/telemetry/src")).unwrap();
        std::fs::write(
            root.join("crates/telemetry/Cargo.toml"),
            "[package]\nname = \"hydra-telemetry\"\n\n[dependencies]\nhydra-types.workspace = true\nhydra-forensics.workspace = true\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        check_layering(&root, &mut findings).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "crate-layering");
        assert_eq!(findings[0].line, 6);
        assert!(findings[0].message.contains("forensics"));
    }

    #[test]
    fn source_references_outside_the_dag_are_flagged() {
        let root = scratch("source");
        std::fs::create_dir_all(root.join("crates/core/src")).unwrap();
        std::fs::write(
            root.join("crates/core/src/bad.rs"),
            "use hydra_sim::batch::BatchRunner;\npub fn f() {}\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        check_layering(&root, &mut findings).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("hydra_sim"));
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn dev_dependencies_are_exempt_in_test_modules_only() {
        let root = scratch("dev");
        std::fs::create_dir_all(root.join("crates/sim/src")).unwrap();
        std::fs::write(
            root.join("crates/sim/Cargo.toml"),
            "[package]\nname = \"hydra-sim\"\n\n[dependencies]\nhydra-types.workspace = true\n\n[dev-dependencies]\nhydra-baselines.workspace = true\n",
        )
        .unwrap();
        std::fs::write(
            root.join("crates/sim/src/ok.rs"),
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use hydra_baselines::cra::Cra;\n    #[test]\n    fn t() { let _ = std::any::type_name::<Cra>(); }\n}\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        check_layering(&root, &mut findings).unwrap();
        assert!(findings.is_empty(), "{findings:?}");

        // The same reference outside a test module is a violation.
        std::fs::write(
            root.join("crates/sim/src/ok.rs"),
            "use hydra_baselines::cra::Cra;\npub fn f() { let _ = std::any::type_name::<Cra>(); }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        check_layering(&root, &mut findings).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("hydra_baselines"));
    }

    #[test]
    fn undeclared_crates_are_flagged() {
        let root = scratch("undeclared");
        std::fs::create_dir_all(root.join("crates/mystery/src")).unwrap();
        let mut findings = Vec::new();
        check_layering(&root, &mut findings).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("not declared"));
    }
}
