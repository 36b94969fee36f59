//! Repository lint engine: syntax-aware rules over the [`crate::lex`] token
//! stream.
//!
//! The first generation of this gate matched raw text line by line. That
//! was exactly strong enough to catch the silent `rcc_ways` clamp it was
//! built to prevent — and exactly weak enough to fire on `unwrap()` inside
//! a doc comment. This generation lexes every file with the hand-rolled
//! lexer in [`crate::lex`] and matches on *tokens*, so comments, string
//! literals, lifetimes and char literals can never confuse a rule again.
//!
//! # Rule catalog
//!
//! Every rule has a stable id (the [`RULES`] table is the single source of
//! truth; `hydra-verify self-test` proves each cataloged rule actually
//! fires):
//!
//! * **`forbid-unsafe`** — every crate root carries
//!   `#![forbid(unsafe_code)]`, vendored shims included.
//! * **`no-unwrap`** — non-test library code must not call `.unwrap()` or
//!   `.expect(...)`: every panic path in library code is a denial-of-service
//!   on the simulation host and hides an error the caller should see.
//! * **`no-println`** — non-test library code must not call `print!`,
//!   `println!`, `eprint!` or `eprintln!`: stdout/stderr belong to the
//!   caller (JSONL traces, BENCH_*.json and CSV exports share them).
//! * **`doc-consistency`** — a `build()` whose docs promise rejection must
//!   contain an `Err` path, and no `build()` body may silently clamp a
//!   user-supplied field with `.min(..)`/`.max(..)`.
//! * **`catch-unwind-layer`** — `catch_unwind` only in the batch harness
//!   (`crates/sim/src/batch.rs`).
//! * **`thread-spawn-layer`** — thread creation only in `crates/engine`,
//!   `crates/server` (the activation daemon) and the batch harness.
//! * **`io-layer`** — Unix-socket I/O (`UnixListener`/`UnixStream`/
//!   `UnixDatagram`) only in `crates/server`: the daemon is the single
//!   process boundary, so socket lifecycle, backpressure and reconnect
//!   semantics live in one audited place.
//! * **`schema-single-source`** — each wire-format schema literal is
//!   spelled out only in its declared defining file; everywhere else must
//!   import the constant.
//! * **`counter-arithmetic`** — no wrapping arithmetic (`+`, `*`, `+=`,
//!   `*=`, `wrapping_*`) on counter-named values and no narrowing `as`
//!   casts on counter/row-address values in the tracking hot paths
//!   (`crates/core`, `crates/baselines`, `crates/forensics`). A single
//!   wrapping add or truncating cast on an activation counter silently
//!   voids the security bound the paper proves; use `saturating_*`,
//!   `checked_*` or `try_from` instead.
//! * **`std-hash-maps`** — no `HashMap`/`HashSet` under std's randomly
//!   keyed SipHash in non-test code of the simulation crates (`core`,
//!   `sim`, `baselines`, `arena`): row-keyed maps use
//!   `hydra_types::hash::{RowMap, RowSet}`, which hash in a few multiplies
//!   and iterate in the same order in every process.
//! * **`crate-layering`** — inter-crate dependencies (Cargo.toml and
//!   `use hydra_*` paths) must follow the DAG declared in [`crate::dag`].
//!
//! # Suppressions
//!
//! A justified false positive is silenced with the engine's `#[allow]`
//! equivalent (custom tool attributes need the unstable `register_tool`,
//! so the marker is a structured comment the engine parses):
//!
//! ```text
//! // lint:allow(counter-arithmetic): low 32 bits of a lossless pack
//! let row = key as u32;
//! ```
//!
//! The marker must name the rule and carry a non-empty justification, and
//! covers its own line and the line below. A marker with no justification
//! suppresses nothing.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hydra_types::json::quote;

use crate::dag;
use crate::lex::{Token, TokenKind, TokenStream};

/// How bad a finding is. Every current rule is [`Severity::Error`]
/// (CI-gating); the field exists so future advisory rules can ride the
/// same pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Gate: CI fails on any finding.
    Error,
    /// Advisory: reported, never gating.
    Warning,
}

impl Severity {
    /// Lowercase name for display/JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// A lint rule's published contract: stable id, severity, one-line summary
/// and the generic fix hint attached to its findings.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule identifier (kebab-case, never recycled).
    pub id: &'static str,
    /// Gate or advisory.
    pub severity: Severity,
    /// One-line description for `hydra-verify rules` and the docs.
    pub summary: &'static str,
    /// How to fix findings of this rule.
    pub fix_hint: &'static str,
}

/// The rule table: the single source of truth for rule ids. The engine can
/// only emit findings whose id is in this table ([`rule`] panics
/// otherwise), and `hydra-verify self-test` proves every entry fires on a
/// known-bad snippet — so this table, the implementation, and the DESIGN.md
/// catalog cannot drift apart silently.
pub const RULES: [RuleInfo; 13] = [
    RuleInfo {
        id: "forbid-unsafe",
        severity: Severity::Error,
        summary: "every crate root must carry #![forbid(unsafe_code)]",
        fix_hint: "add #![forbid(unsafe_code)] at the top of the crate root",
    },
    RuleInfo {
        id: "no-unwrap",
        severity: Severity::Error,
        summary: "no unwrap()/expect() in non-test library code",
        fix_hint: "propagate the error with ? or use a non-panicking alternative",
    },
    RuleInfo {
        id: "no-println",
        severity: Severity::Error,
        summary: "no print!/println!/eprint!/eprintln! in non-test library code",
        fix_hint: "return the string, take a callback, or emit through a telemetry sink",
    },
    RuleInfo {
        id: "doc-consistency",
        severity: Severity::Error,
        summary: "build() docs must match build() behavior (no silent clamps)",
        fix_hint: "reject invalid values with a ConfigError instead of adjusting them",
    },
    RuleInfo {
        id: "catch-unwind-layer",
        severity: Severity::Error,
        summary: "catch_unwind only in the batch harness (crates/sim/src/batch.rs)",
        fix_hint: "let panics propagate and run risky work through BatchRunner",
    },
    RuleInfo {
        id: "thread-spawn-layer",
        severity: Severity::Error,
        summary: "thread creation only in crates/engine, crates/server and the batch harness",
        fix_hint: "run parallel work through WorkerPool or BatchRunner",
    },
    RuleInfo {
        id: "io-layer",
        severity: Severity::Error,
        summary: "Unix-socket I/O only in crates/server (the activation daemon)",
        fix_hint: "talk to the daemon through hydra_server::Client instead of opening sockets",
    },
    RuleInfo {
        id: "clock-reads-layer",
        severity: Severity::Error,
        summary: "raw clock reads (Instant::now/SystemTime::now) only in the timing layers",
        fix_hint: "take a hydra_types::deadline::Stopwatch or an explicit `now` from the \
                   caller instead of reading the clock inline",
    },
    RuleInfo {
        id: "schema-single-source",
        severity: Severity::Error,
        summary: "each schema literal is spelled out only in its defining file",
        fix_hint: "import the *_SCHEMA_VERSION constant instead of repeating the literal",
    },
    RuleInfo {
        id: "metric-names-single-source",
        severity: Severity::Error,
        summary: "each metric name is spelled out only in crates/server/src/stats.rs",
        fix_hint: "import the constant from hydra_server::stats::names instead of \
                   repeating the metric name",
    },
    RuleInfo {
        id: "counter-arithmetic",
        severity: Severity::Error,
        summary: "no wrapping +/*/as-narrowing on counters and row addresses in hot paths",
        fix_hint: "use saturating_*/checked_*/try_from, or annotate \
                   `// lint:allow(counter-arithmetic): <why the value provably fits>`",
    },
    RuleInfo {
        id: "std-hash-maps",
        severity: Severity::Error,
        summary: "no std-hashed HashMap/HashSet in non-test code of core, sim, baselines, arena",
        fix_hint:
            "use hydra_types::hash::RowMap / RowSet (fixed hasher, process-independent order)",
    },
    RuleInfo {
        id: "crate-layering",
        severity: Severity::Error,
        summary: "inter-crate dependencies must follow the declared DAG",
        fix_hint: "depend only on lower layers (see dag::CRATE_DAG); move shared code down",
    },
];

/// Looks up a rule by id.
///
/// # Panics
///
/// Panics on an unknown id: every finding the engine emits must reference
/// a cataloged rule, and this lookup is what enforces it.
pub fn rule(id: &str) -> &'static RuleInfo {
    RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("finding references uncataloged rule id {id:?}"))
}

/// One lint finding, pointing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (an id from [`RULES`]).
    pub rule: &'static str,
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number (0 = whole file).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule_id: &str, file: &Path, line: usize, message: String) -> Self {
        Finding {
            rule: rule(rule_id).id,
            file: file.to_path_buf(),
            line,
            message,
        }
    }

    /// The finding's severity (from its rule).
    pub fn severity(&self) -> Severity {
        rule(self.rule).severity
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Renders findings as a JSON array (machine-readable `hydra-verify lint --json`
/// output). Stable shape: `[{"rule", "severity", "file", "line",
/// "message", "fix_hint"}, ...]`, sorted as given.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let info = rule(f.rule);
        out.push_str(&format!(
            "\n  {{\"rule\":{},\"severity\":{},\"file\":{},\"line\":{},\"message\":{},\"fix_hint\":{}}}",
            quote(f.rule),
            quote(info.severity.as_str()),
            quote(&f.file.display().to_string()),
            f.line,
            quote(&f.message),
            quote(info.fix_hint),
        ));
    }
    out.push_str("\n]\n");
    out
}

/// The wire-format schema literals governed by `schema-single-source`:
/// (literal, constant to import, workspace-relative defining file). The
/// defining file is the only library source allowed to spell the literal
/// out; this table (and the engine source carrying it) is exempt.
pub const SCHEMA_LITERALS: [(&str, &str, &str); 7] = [
    (
        "hydra-trace-v1",
        "hydra_telemetry::TRACE_SCHEMA_VERSION",
        "crates/telemetry/src/sink.rs",
    ),
    (
        "hydra-forensics-v1",
        "hydra_forensics::INCIDENT_SCHEMA_VERSION",
        "crates/forensics/src/incident.rs",
    ),
    (
        "hydra-sweep-v1",
        "hydra_arena::SWEEP_SCHEMA_VERSION",
        "crates/arena/src/sweep.rs",
    ),
    (
        "hydra-serve-v1",
        "hydra_server::SERVE_SCHEMA_VERSION",
        "crates/server/src/frame.rs",
    ),
    (
        "hydra-serve-stats-v1",
        "hydra_server::SERVE_STATS_SCHEMA_VERSION",
        "crates/server/src/stats.rs",
    ),
    (
        "hydra-profile-v2",
        "hydra_profiler::PROFILE_SCHEMA_VERSION",
        "crates/profiler/src/differential.rs",
    ),
    (
        "hydra-arena-v1",
        "hydra_arena::ARENA_SCHEMA_VERSION",
        "crates/arena/src/leaderboard.rs",
    ),
];

/// The metric-name literals governed by `metric-names-single-source`:
/// the wire-stable histogram/gauge keys of the `hydra-serve-stats-v1`
/// payload. [`METRIC_NAMES_DEFINING`] (the `stats::names` module) is the
/// only library source allowed to spell them out; every other call site
/// imports the constants, so a renamed metric cannot silently fork the
/// dashboard vocabulary.
pub const METRIC_NAMES: [(&str, &str); 5] = [
    ("ingest_us", "hydra_server::stats::names::INGEST_US"),
    ("queue_wait_us", "hydra_server::stats::names::QUEUE_WAIT_US"),
    (
        "publish_lag_us",
        "hydra_server::stats::names::PUBLISH_LAG_US",
    ),
    ("queue_depth", "hydra_server::stats::names::QUEUE_DEPTH"),
    ("uptime_micros", "hydra_server::stats::names::UPTIME_MICROS"),
];

/// The one file allowed to spell out [`METRIC_NAMES`] literals.
pub const METRIC_NAMES_DEFINING: &str = "crates/server/src/stats.rs";

/// Identifiers the `counter-arithmetic` rule treats as activation counters.
/// Deliberately *not* the diagnostic `stats` fields (u64 accounting that
/// cannot realistically wrap): these are the names under which the
/// security-critical counts travel.
const COUNTER_NAMES: &[&str] = &[
    "count",
    "counts",
    "counter",
    "counters",
    "rrpv",
    "estimate",
    "estimates",
    "total",
    "spillover",
    "watermark",
];

/// Identifiers that mark a `as u32`/`as i32` cast as row-address or counter
/// flavored (narrower casts are always suspect in the hot-path crates).
const ADDR_NAMES: &[&str] = &[
    "row", "rows", "slot", "slots", "bank", "rank", "key", "index", "count", "counts", "t_g", "t_h",
];

/// Keywords that can directly precede a unary `*`/`&` (so a following star
/// is a deref, not a multiplication).
fn is_keyword(ident: &str) -> bool {
    matches!(
        ident,
        "if" | "while"
            | "return"
            | "match"
            | "in"
            | "else"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "loop"
            | "break"
            | "continue"
            | "as"
            | "where"
            | "yield"
    )
}

/// Identifiers exempt from the deref-increment pattern: scan cursors over
/// in-memory buffers, bounded by their input's length, never by a window
/// threshold. (`*pos += 1` in a JSON parser is not counter arithmetic.)
const CURSOR_NAMES: &[&str] = &[
    "pos", "position", "cursor", "offset", "col", "column", "line",
];

/// Crates whose library code is subject to `counter-arithmetic`.
const HOT_PATH_CRATES: &[&str] = &["core", "baselines", "forensics"];

/// Crates whose library code is subject to `std-hash-maps`: everything an
/// activation passes through in simulation.
const SIM_CRATES: &[&str] = &["core", "sim", "baselines", "arena"];

/// Lints the workspace rooted at `root`. Returns all findings (empty =
/// clean), sorted by file then line.
///
/// # Errors
///
/// Returns [`io::Error`] if the tree cannot be read.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();

    // forbid-unsafe: every crates/* member, the facade crate, and the
    // vendored shims (compiled into every test binary, so no pass).
    let mut crate_roots = vec![root.join("src/lib.rs")];
    for dir in ["crates", "vendor"] {
        let base = root.join(dir);
        if base.is_dir() {
            for entry in fs::read_dir(&base)? {
                let lib = entry?.path().join("src/lib.rs");
                if lib.is_file() {
                    crate_roots.push(lib);
                }
            }
        }
    }
    crate_roots.retain(|p| p.is_file());
    crate_roots.sort();
    for lib in &crate_roots {
        let text = fs::read_to_string(lib)?;
        let ts = TokenStream::new(&text);
        if !has_inner_forbid_unsafe(&ts) {
            findings.push(Finding::new(
                "forbid-unsafe",
                lib,
                0,
                "crate root missing #![forbid(unsafe_code)]".to_string(),
            ));
        }
    }

    // Library sources subject to the token rules: crates/*/src and the
    // facade's src, excluding bin/ subtrees (bins own their stdout and may
    // panic on bad CLI input). Vendored shims are test-support code and
    // exempt from everything but forbid-unsafe.
    let mut lib_files = Vec::new();
    collect_rs(&root.join("src"), &mut lib_files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            collect_rs(&entry?.path().join("src"), &mut lib_files)?;
        }
    }
    lib_files.retain(|p| !p.components().any(|c| c.as_os_str() == "bin"));
    lib_files.sort();

    for file in &lib_files {
        let text = fs::read_to_string(file)?;
        let rel = rel_path(root, file);
        let scanned = ScannedFile::new(file, &rel, &text);
        scanned.check_all(&mut findings);
    }

    // crate-layering: settled across manifests and sources.
    dag::check_layering(root, &mut findings)?;

    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(findings)
}

/// Workspace-relative path with `/` separators (rule scoping is expressed
/// against these).
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Recursively collects `.rs` files under `dir` (no-op if absent).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
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

/// True if the stream contains the inner attribute `#![forbid(unsafe_code)]`.
fn has_inner_forbid_unsafe(ts: &TokenStream<'_>) -> bool {
    for i in 0..ts.code_len() {
        if ts.punct_seq(i, "#!")
            && ts.code_text(i + 2) == Some("[")
            && ts.is_ident(i + 3, "forbid")
            && ts.code_text(i + 4) == Some("(")
            && ts.is_ident(i + 5, "unsafe_code")
        {
            return true;
        }
    }
    false
}

/// One library file, lexed and annotated with the context the rules need:
/// per-token test-module membership, brace depth, and suppression markers.
pub(crate) struct ScannedFile<'s> {
    path: &'s Path,
    rel: &'s str,
    pub(crate) ts: TokenStream<'s>,
    /// Per *code token*: is it inside a `#[cfg(test)] mod`?
    in_test: Vec<bool>,
    /// Per code token: brace depth before the token.
    depth: Vec<i32>,
    /// `(line, rule-id)` pairs from `// lint:allow(rule): reason` markers.
    allows: Vec<(usize, String)>,
}

impl<'s> ScannedFile<'s> {
    pub(crate) fn new(path: &'s Path, rel: &'s str, text: &'s str) -> Self {
        let ts = TokenStream::new(text);
        let mut in_test = Vec::with_capacity(ts.code_len());
        let mut depth_v = Vec::with_capacity(ts.code_len());
        let mut depth: i32 = 0;
        let mut pending_cfg_test = false;
        let mut pending_mod = false;
        let mut test_depth: Option<i32> = None;

        let mut i = 0;
        while i < ts.code_len() {
            depth_v.push(depth);
            in_test.push(test_depth.is_some());
            let text_i = ts.code_text(i).unwrap_or("");

            // Detect `#[cfg(test)]` attributes (outer form only; inner
            // `#![cfg(test)]` does not occur in library code).
            if text_i == "#" && ts.code_text(i + 1) == Some("[") {
                if ts.is_ident(i + 2, "cfg")
                    && ts.code_text(i + 3) == Some("(")
                    && ts.is_ident(i + 4, "test")
                    && ts.code_text(i + 5) == Some(")")
                    && ts.code_text(i + 6) == Some("]")
                {
                    pending_cfg_test = true;
                }
                // Attributes carry no braces that matter; skip the group so
                // e.g. `#[cfg(test)]` never cancels its own pending flag.
                let mut j = i + 2;
                let mut bracket = 1;
                while bracket > 0 && j < ts.code_len() {
                    match ts.code_text(j) {
                        Some("[") => bracket += 1,
                        Some("]") => bracket -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                for _ in (i + 1)..j {
                    depth_v.push(depth);
                    in_test.push(test_depth.is_some());
                }
                i = j;
                continue;
            }

            if pending_cfg_test {
                if text_i == "mod" {
                    pending_mod = true;
                    pending_cfg_test = false;
                } else {
                    // cfg(test) on a non-mod item: conservatively treat the
                    // item as normal code (matches the old scanner).
                    pending_cfg_test = false;
                }
            }

            match text_i {
                "{" => {
                    if pending_mod {
                        test_depth = Some(depth);
                        pending_mod = false;
                        // The `mod tests {` body starts test scope *after*
                        // this brace.
                        let last = in_test.len() - 1;
                        in_test[last] = true;
                    }
                    depth += 1;
                }
                "}" => {
                    depth -= 1;
                    if test_depth.is_some_and(|d| depth <= d) {
                        test_depth = None;
                        let last = in_test.len() - 1;
                        in_test[last] = true; // closing brace still belongs
                    }
                }
                _ => {}
            }
            i += 1;
        }

        let mut allows = Vec::new();
        for tok in &ts.tokens {
            if tok.kind != TokenKind::Comment {
                continue;
            }
            let body = tok.text(ts.src);
            if let Some(rest) = body.split("lint:allow(").nth(1) {
                if let Some((id, just)) = rest.split_once(')') {
                    let justification = just.trim_start_matches(':').trim();
                    if !justification.is_empty() {
                        allows.push((tok.line, id.trim().to_string()));
                    }
                }
            }
        }

        ScannedFile {
            path,
            rel,
            ts,
            in_test,
            depth: depth_v,
            allows,
        }
    }

    fn code(&self, i: usize) -> Option<&Token> {
        self.ts.code(i)
    }

    fn text(&self, i: usize) -> Option<&str> {
        self.ts.code_text(i)
    }

    fn line(&self, i: usize) -> usize {
        self.code(i).map_or(0, |t| t.line)
    }

    fn is_suppressed(&self, rule_id: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|(l, id)| id == rule_id && (*l == line || l + 1 == line))
    }

    pub(crate) fn emit(
        &self,
        findings: &mut Vec<Finding>,
        rule_id: &str,
        line: usize,
        message: String,
    ) {
        if !self.is_suppressed(rule_id, line) {
            findings.push(Finding::new(rule_id, self.path, line, message));
        }
    }

    /// Whether code token `i` is inside a `#[cfg(test)] mod`.
    pub(crate) fn in_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// The crate name if this file lives under `crates/<name>/src`.
    fn crate_name(&self) -> Option<&str> {
        let mut parts = self.rel.split('/');
        if parts.next() == Some("crates") {
            let name = parts.next()?;
            if parts.next() == Some("src") {
                return Some(name);
            }
        }
        None
    }

    fn is_panic_boundary(&self) -> bool {
        self.rel == "crates/sim/src/batch.rs"
    }

    fn is_thread_layer(&self) -> bool {
        self.is_panic_boundary() || matches!(self.crate_name(), Some("engine") | Some("server"))
    }

    /// The activation daemon owns the process boundary: Unix-socket I/O
    /// lives there and nowhere else.
    fn is_io_layer(&self) -> bool {
        self.crate_name() == Some("server")
    }

    /// The timing layers own the wall clock: the deadline/stopwatch
    /// primitives, the telemetry sink, and the profiler read it directly;
    /// everything else takes a `Stopwatch` or an explicit `now` from its
    /// caller so hot paths stay deterministic and replayable.
    fn is_clock_layer(&self) -> bool {
        self.rel == "crates/types/src/deadline.rs"
            || matches!(self.crate_name(), Some("telemetry") | Some("profiler"))
    }

    /// The lint engine itself carries the schema and rule tables.
    fn is_rule_registry(&self) -> bool {
        self.rel == "crates/analysis/src/lint.rs"
    }

    fn check_all(&self, findings: &mut Vec<Finding>) {
        self.check_token_rules(findings);
        self.check_doc_consistency(findings);
    }

    /// All the single-pass token rules.
    fn check_token_rules(&self, findings: &mut Vec<Finding>) {
        let hot_path = self
            .crate_name()
            .is_some_and(|c| HOT_PATH_CRATES.contains(&c));
        let sim_crate = self.crate_name().is_some_and(|c| SIM_CRATES.contains(&c));
        for i in 0..self.ts.code_len() {
            let in_test = self.in_test[i];
            let Some(text) = self.text(i) else { continue };
            let Some(tok) = self.code(i) else { continue };

            // no-unwrap: `.unwrap()` / `.expect(`.
            if !in_test
                && tok.kind == TokenKind::Ident
                && (text == "unwrap" || text == "expect")
                && self.text(i.wrapping_sub(1)) == Some(".")
                && self.text(i + 1) == Some("(")
                && i > 0
            {
                self.emit(
                    findings,
                    "no-unwrap",
                    tok.line,
                    "unwrap()/expect() in non-test library code; propagate the error or use a non-panicking alternative"
                        .to_string(),
                );
            }

            // no-println: `print!` / `println!` / `eprint!` / `eprintln!`.
            if !in_test
                && tok.kind == TokenKind::Ident
                && matches!(text, "print" | "println" | "eprint" | "eprintln")
                && self.text(i + 1) == Some("!")
            {
                self.emit(
                    findings,
                    "no-println",
                    tok.line,
                    format!("{text}! in non-test library code; return the string, take a callback, or emit through a telemetry sink and let the caller decide where output goes"),
                );
            }

            // catch-unwind-layer (test modules included: panic containment
            // is the batch harness's exclusive privilege).
            if tok.kind == TokenKind::Ident && text == "catch_unwind" && !self.is_panic_boundary() {
                self.emit(
                    findings,
                    "catch-unwind-layer",
                    tok.line,
                    "catch_unwind outside the batch harness (crates/sim/src/batch.rs); let panics propagate and run risky work through BatchRunner instead"
                        .to_string(),
                );
            }

            // thread-spawn-layer: `thread::spawn|scope|Builder`.
            if tok.kind == TokenKind::Ident
                && text == "thread"
                && self.ts.punct_seq(i + 1, "::")
                && !self.is_thread_layer()
            {
                if let Some(meth) = self.text(i + 3) {
                    if matches!(meth, "spawn" | "scope" | "Builder") {
                        self.emit(
                            findings,
                            "thread-spawn-layer",
                            tok.line,
                            format!(
                                "thread::{meth} outside the thread layer (crates/engine, crates/server, crates/sim/src/batch.rs); run parallel work through WorkerPool or BatchRunner instead"
                            ),
                        );
                    }
                }
            }

            // clock-reads-layer: `Instant::now` / `SystemTime::now` outside
            // the timing layers. Tests are exempt (timing a test is
            // harmless); library hot paths must take time from the caller.
            if !in_test
                && tok.kind == TokenKind::Ident
                && matches!(text, "Instant" | "SystemTime")
                && self.ts.punct_seq(i + 1, "::")
                && self.text(i + 3) == Some("now")
                && !self.is_clock_layer()
            {
                self.emit(
                    findings,
                    "clock-reads-layer",
                    tok.line,
                    format!(
                        "{text}::now() outside the timing layers (crates/telemetry, crates/profiler, crates/types/src/deadline.rs); take a hydra_types::deadline::Stopwatch or an explicit `now` from the caller"
                    ),
                );
            }

            // io-layer: Unix-socket types outside the daemon crate (test
            // modules included: process-boundary I/O is the daemon's
            // exclusive privilege, like panic containment is the batch
            // harness's).
            if tok.kind == TokenKind::Ident
                && matches!(text, "UnixListener" | "UnixStream" | "UnixDatagram")
                && !self.is_io_layer()
            {
                self.emit(
                    findings,
                    "io-layer",
                    tok.line,
                    format!(
                        "{text} outside the I/O layer (crates/server); talk to the daemon through hydra_server::Client instead of opening sockets"
                    ),
                );
            }

            // schema-single-source: a schema literal in a string outside
            // its defining file (doc comments and test modules exempt by
            // construction; the rule registry table itself exempt).
            if !in_test && tok.kind == TokenKind::Str && !self.is_rule_registry() {
                for (literal, constant, defining) in SCHEMA_LITERALS {
                    if text.contains(literal) && self.rel != defining {
                        self.emit(
                            findings,
                            "schema-single-source",
                            tok.line,
                            format!(
                                "schema literal \"{literal}\" is spelled out outside its defining file ({defining}); import {constant} instead"
                            ),
                        );
                    }
                }
            }

            // metric-names-single-source: a stats metric name in a string
            // outside the stats module (same shape as the schema check —
            // doc comments, test modules and the registry exempt).
            if !in_test && tok.kind == TokenKind::Str && !self.is_rule_registry() {
                for (name, constant) in METRIC_NAMES {
                    if text.contains(name) && self.rel != METRIC_NAMES_DEFINING {
                        self.emit(
                            findings,
                            "metric-names-single-source",
                            tok.line,
                            format!(
                                "metric name \"{name}\" is spelled out outside its defining file ({METRIC_NAMES_DEFINING}); import {constant} instead"
                            ),
                        );
                    }
                }
            }

            // std-hash-maps: the std map types name RandomState as their
            // default hasher; the simulation crates use the row hasher.
            if sim_crate
                && !in_test
                && tok.kind == TokenKind::Ident
                && matches!(text, "HashMap" | "HashSet")
            {
                self.emit(
                    findings,
                    "std-hash-maps",
                    tok.line,
                    format!(
                        "std {text} in a simulation crate hashes with randomly keyed SipHash; use hydra_types::hash::{} instead",
                        if text == "HashMap" { "RowMap" } else { "RowSet" }
                    ),
                );
            }

            // counter-arithmetic: hot-path crates only.
            if hot_path && !in_test {
                self.check_counter_arithmetic(findings, i);
            }
        }
    }

    /// The `counter-arithmetic` patterns anchored at code token `i`.
    fn check_counter_arithmetic(&self, findings: &mut Vec<Finding>, i: usize) {
        let Some(tok) = self.code(i) else { return };
        let text = self.text(i).unwrap_or("");

        // (a) Compound add/mul assignment on a counter lvalue, or on any
        // dereferenced lvalue (`*c += 1` is the table-update idiom).
        if tok.kind == TokenKind::Punct
            && (text == "+" || text == "*")
            && self.text(i + 1) == Some("=")
            && self.code(i + 1).is_some_and(|t| t.start == tok.end)
        {
            if let Some((name, deref)) = self.lvalue_before(i) {
                if (deref && !CURSOR_NAMES.contains(&name)) || COUNTER_NAMES.contains(&name) {
                    let op = if text == "+" { "+=" } else { "*=" };
                    self.emit(
                        findings,
                        "counter-arithmetic",
                        tok.line,
                        format!(
                            "wrapping `{op}` on counter `{name}`; use saturating_add/checked_add so an overflow cannot silently void the tracking bound"
                        ),
                    );
                }
            }
        }

        // (b) Binary `+`/`*` with a counter-named operand (plain assignment
        // of a wrapped sum, `self.spillover + 1`-style). Only a token that
        // can end an operand before the operator makes it binary — `*count`
        // after `=>`/`if`/`{` is a deref, not a multiplication.
        if tok.kind == TokenKind::Punct && (text == "+" || text == "*") {
            let compound = self.text(i + 1) == Some("=")
                && self.code(i + 1).is_some_and(|t| t.start == tok.end);
            let binary = i > 0
                && self.code(i - 1).is_some_and(|t| {
                    let prev = t.text(self.ts.src);
                    (t.kind == TokenKind::Ident && !is_keyword(prev))
                        || t.kind == TokenKind::Number
                        || matches!(prev, ")" | "]")
                });
            if !compound && binary {
                let lhs = self.lvalue_before(i).map(|(n, _)| n);
                let rhs = self.path_last_ident_after(i);
                let counter = [lhs, rhs]
                    .into_iter()
                    .flatten()
                    .find(|n| COUNTER_NAMES.contains(n));
                if let Some(name) = counter {
                    self.emit(
                        findings,
                        "counter-arithmetic",
                        tok.line,
                        format!(
                            "wrapping `{text}` on counter `{name}`; use saturating/checked arithmetic for counter math"
                        ),
                    );
                }
            }
        }

        // (c) Explicit wrapping calls on a counter receiver.
        if tok.kind == TokenKind::Ident
            && (text == "wrapping_add" || text == "wrapping_mul")
            && self.text(i.wrapping_sub(1)) == Some(".")
            && i >= 2
        {
            if let Some((name, _)) = self.lvalue_before(i - 1) {
                if COUNTER_NAMES.contains(&name) {
                    self.emit(
                        findings,
                        "counter-arithmetic",
                        tok.line,
                        format!("{text} on counter `{name}`; counters must saturate, not wrap"),
                    );
                }
            }
        }

        // (d) Narrowing `as` casts: u8/u16 always (one truncated counter
        // byte is a voided bound), u32 when the operand looks like a row
        // address or counter.
        if tok.kind == TokenKind::Ident && text == "as" {
            if let Some(ty) = self.text(i + 1) {
                let flagged = match ty {
                    "u8" | "i8" | "u16" | "i16" => true,
                    "u32" | "i32" => self.operand_mentions_addr(i),
                    _ => false,
                };
                if flagged {
                    self.emit(
                        findings,
                        "counter-arithmetic",
                        tok.line,
                        format!(
                            "narrowing `as {ty}` cast in a counter/row-address path; use {ty}::try_from with an explicit saturation or error path"
                        ),
                    );
                }
            }
        }
    }

    /// Walks backward from the operator at code index `op` over a place
    /// expression (`self.stats.hits`, `counts[idx]`, `*c`) and returns the
    /// significant identifier plus whether the place is a deref.
    fn lvalue_before(&self, op: usize) -> Option<(&str, bool)> {
        let mut k = op.checked_sub(1)?;
        // Skip a trailing index group: `counts[idx] += 1`.
        if self.text(k) == Some("]") {
            let mut bracket = 1;
            while bracket > 0 {
                k = k.checked_sub(1)?;
                match self.text(k) {
                    Some("]") => bracket += 1,
                    Some("[") => bracket -= 1,
                    _ => {}
                }
            }
            k = k.checked_sub(1)?;
        }
        let tok = self.code(k)?;
        if tok.kind != TokenKind::Ident {
            return None;
        }
        let name = self.text(k)?;
        // Walk to the start of the path chain to look for a deref star.
        let mut s = k;
        while let Some(prev) = s.checked_sub(1) {
            match self.text(prev) {
                Some(".") | Some(":") => {
                    let before = prev.checked_sub(1);
                    match before.and_then(|b| self.code(b)).map(|t| t.kind) {
                        Some(TokenKind::Ident) | Some(TokenKind::Punct) => {
                            s = before.unwrap_or(prev);
                        }
                        _ => break,
                    }
                }
                Some(_) if self.code(prev).is_some_and(|t| t.kind == TokenKind::Ident) => break,
                _ => break,
            }
        }
        let deref = s
            .checked_sub(1)
            .and_then(|p| self.text(p))
            .is_some_and(|t| t == "*")
            && !s
                .checked_sub(2)
                .and_then(|p| self.code(p))
                .is_some_and(|t| {
                    t.kind == TokenKind::Ident
                        || t.kind == TokenKind::Number
                        || self.text(s - 2) == Some(")")
                        || self.text(s - 2) == Some("]")
                });
        Some((name, deref))
    }

    /// The last identifier of the path expression following code index `op`
    /// (`1 + self.count` → `count`).
    fn path_last_ident_after(&self, op: usize) -> Option<&str> {
        let mut k = op + 1;
        if self.text(k) == Some("*") || self.text(k) == Some("&") {
            k += 1;
        }
        let mut last: Option<&str> = None;
        loop {
            match self.code(k) {
                Some(t) if t.kind == TokenKind::Ident => {
                    last = self.text(k);
                    k += 1;
                }
                _ => break,
            }
            match self.text(k) {
                Some(".") => k += 1,
                Some(":") if self.text(k + 1) == Some(":") => k += 2,
                _ => break,
            }
        }
        last
    }

    /// True if the expression tokens before the `as` at code index `i`
    /// mention a row-address/counter identifier. The scan walks back to the
    /// nearest statement/assignment boundary, bounded to keep it local.
    fn operand_mentions_addr(&self, i: usize) -> bool {
        let mut k = i;
        for _ in 0..16 {
            let Some(prev) = k.checked_sub(1) else { break };
            let Some(text) = self.text(prev) else { break };
            if matches!(text, ";" | "{" | "}" | "let" | "return" | ",")
                || (text == "=" && self.text(prev.wrapping_sub(1)) != Some("="))
            {
                break;
            }
            if self.code(prev).is_some_and(|t| t.kind == TokenKind::Ident)
                && ADDR_NAMES.contains(&text)
            {
                return true;
            }
            k = prev;
        }
        false
    }

    /// doc-consistency: `build()` docs vs `build()` behavior.
    fn check_doc_consistency(&self, findings: &mut Vec<Finding>) {
        for i in 0..self.ts.code_len() {
            if self.in_test[i]
                || !self.ts.is_ident(i, "fn")
                || !self.ts.is_ident(i + 1, "build")
                || self.text(i + 2) != Some("(")
            {
                continue;
            }
            let build_line = self.line(i);
            let promises = self
                .docs_before(i)
                .iter()
                .any(|d| d.contains("# Errors") || d.to_ascii_lowercase().contains("reject"));

            // Find the body: the first `{` at the fn's depth, then its
            // matching close.
            let fn_depth = self.depth[i];
            let mut j = i + 2;
            while j < self.ts.code_len() {
                if self.text(j) == Some("{") && self.depth[j] == fn_depth {
                    break;
                }
                // A `;` at fn depth means a bodiless signature (trait decl).
                if self.text(j) == Some(";") && self.depth[j] == fn_depth {
                    j = self.ts.code_len();
                }
                j += 1;
            }
            if j >= self.ts.code_len() {
                continue;
            }
            let body_start = j + 1;
            let mut end = body_start;
            while end < self.ts.code_len() && self.depth[end] > fn_depth {
                end += 1;
            }

            let mut has_err = false;
            for k in body_start..end {
                let t = self.text(k).unwrap_or("");
                if t == "Err" && self.text(k + 1) == Some("(") {
                    has_err = true;
                }
                if t == "?" && self.text(k.wrapping_sub(1)) == Some(")") && k > 0 {
                    has_err = true;
                }
                // Silent clamp: `self.<field>.min(` / `.max(`.
                if t == "self"
                    && self.text(k + 1) == Some(".")
                    && self.text(k + 3) == Some(".")
                    && self.text(k + 4).is_some_and(|m| m == "min" || m == "max")
                    && self.text(k + 5) == Some("(")
                {
                    if let Some(field) = self.text(k + 2) {
                        let method = self.text(k + 4).unwrap_or("min");
                        self.emit(
                            findings,
                            "doc-consistency",
                            self.line(k),
                            format!(
                                "build() silently clamps user-supplied field `{field}` via .{method}(); reject invalid values with a ConfigError instead"
                            ),
                        );
                    }
                }
            }
            if promises && !has_err {
                self.emit(
                    findings,
                    "doc-consistency",
                    build_line,
                    "build() docs promise rejection of invalid configs but the body has no Err(...) path"
                        .to_string(),
                );
            }
        }
    }

    /// Doc-comment texts immediately preceding code token `i` (attributes
    /// and whitespace between docs and the item are skipped).
    fn docs_before(&self, i: usize) -> Vec<&str> {
        let Some(anchor) = self.code(i) else {
            return Vec::new();
        };
        // Find the raw index of the anchor token.
        let Some(mut raw) = self.ts.tokens.iter().position(|t| t.start == anchor.start) else {
            return Vec::new();
        };
        let mut docs = Vec::new();
        while raw > 0 {
            raw -= 1;
            let t = &self.ts.tokens[raw];
            match t.kind {
                TokenKind::Whitespace | TokenKind::Comment => continue,
                // Visibility and fn-qualifier keywords sit between the item
                // keyword and its docs.
                TokenKind::Ident
                    if matches!(
                        t.text(self.ts.src),
                        "pub" | "const" | "async" | "unsafe" | "extern"
                    ) =>
                {
                    continue
                }
                // `pub(crate)`-style visibility groups.
                TokenKind::Punct if t.text(self.ts.src) == ")" => {
                    let mut paren = 1;
                    while raw > 0 && paren > 0 {
                        raw -= 1;
                        match self.ts.tokens[raw].text(self.ts.src) {
                            ")" => paren += 1,
                            "(" => paren -= 1,
                            _ => {}
                        }
                    }
                }
                TokenKind::DocComment => docs.push(t.text(self.ts.src)),
                TokenKind::Punct if t.text(self.ts.src) == "]" => {
                    // Skip an attribute group backward to its `#`.
                    let mut bracket = 1;
                    while raw > 0 && bracket > 0 {
                        raw -= 1;
                        match self.ts.tokens[raw].text(self.ts.src) {
                            "]" => bracket += 1,
                            "[" => bracket -= 1,
                            _ => {}
                        }
                    }
                    if raw > 0 && self.ts.tokens[raw - 1].text(self.ts.src) == "#" {
                        raw -= 1;
                    }
                }
                _ => break,
            }
        }
        docs.reverse();
        docs
    }
}

/// One rule self-test: a minimal scratch workspace that must trigger the
/// rule. Paths are workspace-relative; contents are written verbatim.
struct SelfTestCase {
    rule: &'static str,
    files: &'static [(&'static str, &'static str)],
}

const FORBID: &str = "#![forbid(unsafe_code)]\n";

const SELF_TEST_CASES: [SelfTestCase; 13] = [
    SelfTestCase {
        rule: "forbid-unsafe",
        files: &[("src/lib.rs", "pub fn f() {}\n")],
    },
    SelfTestCase {
        rule: "no-unwrap",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )],
    },
    SelfTestCase {
        rule: "no-println",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() { println!(\"x\"); }\n",
        )],
    },
    SelfTestCase {
        rule: "doc-consistency",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub struct B;\nimpl B {\n    /// Builds it; invalid values are rejected.\n    pub fn build(&self) -> usize {\n        42\n    }\n}\n",
        )],
    },
    SelfTestCase {
        rule: "catch-unwind-layer",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() -> bool { std::panic::catch_unwind(|| 1).is_ok() }\n",
        )],
    },
    SelfTestCase {
        rule: "thread-spawn-layer",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() { std::thread::spawn(|| {}).join().ok(); }\n",
        )],
    },
    SelfTestCase {
        rule: "io-layer",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::os::unix::net::UnixListener;\npub fn f(l: &UnixListener) -> bool { l.local_addr().is_ok() }\n",
        )],
    },
    SelfTestCase {
        rule: "clock-reads-layer",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        )],
    },
    SelfTestCase {
        rule: "schema-single-source",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub const V: &str = \"hydra-trace-v1\";\n",
        )],
    },
    SelfTestCase {
        rule: "metric-names-single-source",
        files: &[(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub const K: &str = \"queue_wait_us\";\n",
        )],
    },
    SelfTestCase {
        rule: "counter-arithmetic",
        files: &[
            ("src/lib.rs", FORBID),
            (
                "crates/core/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f(counts: &mut [u32]) { counts[0] += 1; }\n",
            ),
        ],
    },
    SelfTestCase {
        rule: "std-hash-maps",
        files: &[
            ("src/lib.rs", FORBID),
            (
                "crates/sim/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() -> std::collections::HashMap<u32, u32> { Default::default() }\n",
            ),
        ],
    },
    SelfTestCase {
        rule: "crate-layering",
        files: &[
            ("src/lib.rs", FORBID),
            (
                "crates/types/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() -> &'static str { hydra_core::NAME }\n",
            ),
        ],
    },
];

/// Proves every registered rule can actually fire: lints one deliberately
/// bad scratch workspace per rule and demands that exact rule id among the
/// findings. With `design_text` (the DESIGN.md source) it also checks the
/// documented rule catalog mentions every id. Returns one report line per
/// check, or the first failure.
///
/// # Errors
///
/// Returns a description of the first rule that failed to fire, was missing
/// from the catalog, or whose scratch workspace could not be written.
pub fn self_test(design_text: Option<&str>) -> Result<Vec<String>, String> {
    let mut report = Vec::new();
    if let Some(text) = design_text {
        for info in &RULES {
            let tag = format!("`{}`", info.id);
            if !text.contains(&tag) {
                return Err(format!(
                    "rule {} is not documented in the DESIGN.md catalog",
                    info.id
                ));
            }
        }
        report.push(format!("catalog: all {} rule ids documented", RULES.len()));
    }
    for case in &SELF_TEST_CASES {
        // Every rule id in the table must have a self-test case; `rule()`
        // panics below if a case names an id the table dropped.
        let info = rule(case.rule);
        let root =
            std::env::temp_dir().join(format!("hydra-selftest-{}-{}", info.id, std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (rel, contents) in case.files {
            let path = root.join(rel);
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)
                    .map_err(|e| format!("self-test {}: mkdir failed: {e}", info.id))?;
            }
            fs::write(&path, contents)
                .map_err(|e| format!("self-test {}: write failed: {e}", info.id))?;
        }
        let findings = lint_workspace(&root)
            .map_err(|e| format!("self-test {}: lint failed: {e}", info.id))?;
        let _ = fs::remove_dir_all(&root);
        if !findings.iter().any(|f| f.rule == info.id) {
            return Err(format!(
                "rule {} did not fire on its known-bad snippet (got: {findings:?})",
                info.id
            ));
        }
        report.push(format!("rule {}: fires on known-bad input", info.id));
    }
    if SELF_TEST_CASES.len() != RULES.len() {
        return Err(format!(
            "rule table has {} rules but only {} self-test cases",
            RULES.len(),
            SELF_TEST_CASES.len()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hydra-lint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("src")).unwrap();
        dir
    }

    fn lint_one(tag: &str, source: &str) -> Vec<Finding> {
        let root = scratch_dir(tag);
        fs::write(
            root.join("src/lib.rs"),
            format!("#![forbid(unsafe_code)]\n{source}"),
        )
        .unwrap();
        let diags = lint_workspace(&root).unwrap();
        let _ = fs::remove_dir_all(&root);
        diags
    }

    /// Lints `source` placed at `crates/<krate>/src/<file>` in a scratch
    /// workspace.
    fn lint_at(tag: &str, krate: &str, file: &str, source: &str) -> Vec<Finding> {
        let root = scratch_dir(tag);
        fs::create_dir_all(root.join(format!("crates/{krate}/src"))).unwrap();
        fs::write(root.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
        fs::write(
            root.join(format!("crates/{krate}/src/lib.rs")),
            "#![forbid(unsafe_code)]\n",
        )
        .unwrap();
        fs::write(root.join(format!("crates/{krate}/src/{file}")), source).unwrap();
        let diags = lint_workspace(&root).unwrap();
        let _ = fs::remove_dir_all(&root);
        diags
    }

    #[test]
    fn flags_missing_forbid_unsafe() {
        let root = scratch_dir("nounsafe");
        fs::write(root.join("src/lib.rs"), "pub fn f() {}\n").unwrap();
        let diags = lint_workspace(&root).unwrap();
        let _ = fs::remove_dir_all(&root);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "forbid-unsafe");
    }

    #[test]
    fn flags_unwrap_in_library_code_with_line() {
        let diags = lint_one(
            "unwrap",
            "pub fn f() {\n    let x: Option<u8> = None;\n    x.unwrap();\n}\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "no-unwrap");
        assert_eq!(diags[0].line, 4); // 1 line of forbid header + 3
    }

    #[test]
    fn ignores_unwrap_in_test_modules() {
        let diags = lint_one(
            "testmod",
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn ignores_unwrap_in_comments_and_strings() {
        let diags = lint_one(
            "strings",
            "pub fn f() -> String {\n    // .unwrap() here is fine\n    String::from(\".unwrap()\")\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn ignores_unwrap_in_doc_comments_and_raw_strings() {
        // The raw-text scanner this engine replaced could not express these.
        let diags = lint_one(
            "docstr",
            "/// Call `.unwrap()` at your peril; println!(\"x\") too.\npub fn f() -> &'static str {\n    r#\"thread::spawn . unwrap() println!(\"no\")\"#\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_silent_clamp_in_build() {
        let diags = lint_one(
            "clamp",
            "pub struct B { ways: usize }\nimpl B {\n    pub fn build(&self) -> usize {\n        self.ways.min(4)\n    }\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "doc-consistency");
        assert!(diags[0].message.contains("`ways`"));
    }

    #[test]
    fn allows_clamping_constants_in_build() {
        let diags = lint_one(
            "constclamp",
            "const W: usize = 16;\npub struct B { n: usize }\nimpl B {\n    pub fn build(&self) -> Result<usize, ()> {\n        if self.n == 0 { return Err(()); }\n        Ok(W.min(self.n))\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_rejection_docs_without_err_path() {
        let diags = lint_one(
            "docerr",
            "pub struct B;\nimpl B {\n    /// Builds it; invalid values are rejected.\n    pub fn build(&self) -> usize {\n        42\n    }\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "doc-consistency");
        assert!(diags[0].message.contains("no Err"));
    }

    #[test]
    fn accepts_rejection_docs_with_err_path() {
        let diags = lint_one(
            "docok",
            "pub struct B { n: u32 }\nimpl B {\n    /// # Errors\n    /// Rejects zero.\n    pub fn build(&self) -> Result<u32, ()> {\n        if self.n == 0 { return Err(()); }\n        Ok(self.n)\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn multiline_build_signature_scopes_to_the_body() {
        let diags = lint_one(
            "multisig",
            "fn inner(n: u32) -> Result<u32, ()> { if n == 0 { Err(()) } else { Ok(n) } }\npub struct B { n: u32 }\nimpl B {\n    /// # Errors\n    /// Rejects zero.\n    pub fn build(\n        &self,\n        extra: u32,\n    ) -> Result<u32, ()> {\n        Ok(inner(self.n + extra)?)\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn accepts_rejection_docs_with_question_mark_propagation() {
        let diags = lint_one(
            "docprop",
            "fn inner(n: u32) -> Result<u32, ()> { if n == 0 { Err(()) } else { Ok(n) } }\npub struct B { n: u32 }\nimpl B {\n    /// # Errors\n    /// Rejects zero.\n    pub fn build(&self) -> Result<u32, ()> {\n        Ok(inner(self.n)?)\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_unwind_catching_outside_the_harness() {
        let diags = lint_one(
            "unwind",
            "pub fn f() {\n    let _ = std::panic::catch_unwind(|| 1);\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "catch-unwind-layer");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn allows_unwind_catching_in_the_batch_harness() {
        let root = scratch_dir("unwindok");
        fs::create_dir_all(root.join("crates/sim/src")).unwrap();
        fs::write(
            root.join("crates/sim/src/batch.rs"),
            "pub fn f() {\n    let _ = std::panic::catch_unwind(|| 1);\n}\n",
        )
        .unwrap();
        fs::write(root.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
        let diags = lint_workspace(&root).unwrap();
        let _ = fs::remove_dir_all(&root);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unwind_rule_covers_test_modules_too() {
        let diags = lint_one(
            "unwindtest",
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::panic::catch_unwind(|| 1);\n    }\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "catch-unwind-layer");
    }

    #[test]
    fn flags_thread_spawn_outside_the_thread_layer() {
        let diags = lint_one("spawn", "pub fn f() {\n    std::thread::spawn(|| 1);\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "thread-spawn-layer");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("thread::spawn"));
    }

    #[test]
    fn thread_rule_covers_scoped_threads_and_builders_in_tests_too() {
        let diags = lint_one(
            "spawntest",
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        std::thread::scope(|s| { let _ = s; });\n        let _ = std::thread::Builder::new();\n    }\n}\n",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "thread-spawn-layer"));
    }

    #[test]
    fn allows_thread_spawn_in_the_engine_and_batch_harness() {
        let root = scratch_dir("spawnok");
        fs::create_dir_all(root.join("crates/engine/src")).unwrap();
        fs::create_dir_all(root.join("crates/sim/src")).unwrap();
        fs::write(root.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
        fs::write(
            root.join("crates/engine/src/pool.rs"),
            "pub fn f() {\n    std::thread::scope(|s| { let _ = s; });\n}\n",
        )
        .unwrap();
        fs::write(
            root.join("crates/sim/src/batch.rs"),
            "pub fn g() {\n    let _ = std::thread::Builder::new();\n}\n",
        )
        .unwrap();
        let diags = lint_workspace(&root).unwrap();
        let _ = fs::remove_dir_all(&root);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_unix_sockets_outside_the_io_layer() {
        let diags = lint_at(
            "iolayer",
            "telemetry",
            "x.rs",
            "use std::os::unix::net::UnixStream;\npub fn f(path: &std::path::Path) -> bool {\n    UnixStream::connect(path).is_ok()\n}\n",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "io-layer"));
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("UnixStream"));
    }

    #[test]
    fn allows_unix_sockets_in_the_server_crate() {
        let diags = lint_at(
            "iolayerok",
            "server",
            "x.rs",
            "use std::os::unix::net::{UnixListener, UnixStream};\npub fn f(l: &UnixListener) -> std::io::Result<UnixStream> {\n    l.accept().map(|(s, _)| s)\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_std_hash_maps_in_simulation_crates_outside_tests() {
        let source = "use std::collections::{HashMap, HashSet};\npub struct T {\n    rows: HashMap<u32, u32>,\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::collections::HashSet::<u32>::new();\n    }\n}\n";
        for krate in ["core", "sim", "baselines", "arena"] {
            let diags = lint_at("stdhash", krate, "x.rs", source);
            assert_eq!(diags.len(), 3, "{krate}: {diags:?}");
            assert!(diags.iter().all(|d| d.rule == "std-hash-maps"));
            assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), [1, 1, 3]);
            assert!(diags[2].message.contains("RowMap"));
        }
        // Crates off the simulation path keep std maps.
        assert!(lint_at("stdhashok", "server", "x.rs", source).is_empty());
    }

    #[test]
    fn allows_thread_spawn_in_the_server_crate() {
        let diags = lint_at(
            "spawnsrv",
            "server",
            "x.rs",
            "pub fn f() {\n    std::thread::spawn(|| 1).join().ok();\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn thread_sleep_is_not_thread_creation() {
        let diags = lint_one(
            "sleepok",
            "pub fn f() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n    std::thread::yield_now();\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_println_and_eprintln_in_library_code() {
        let diags = lint_one(
            "println",
            "pub fn f() {\n    println!(\"progress\");\n    eprintln!(\"oops\");\n}\n",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "no-println"));
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[1].line, 4);
    }

    #[test]
    fn flags_print_and_eprint_but_not_in_test_modules() {
        let diags = lint_one(
            "print",
            "pub fn f(s: &str) {\n    print!(\"{s}\");\n    eprint!(\"{s}\");\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        print!(\"test output is fine\");\n    }\n}\n",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "no-println"));
        assert_eq!((diags[0].line, diags[1].line), (3, 4));
        assert!(
            diags[0].message.starts_with("print! "),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn ignores_println_in_test_modules_comments_and_writeln() {
        let diags = lint_one(
            "printlnok",
            "use std::fmt::Write as _;\npub fn f(out: &mut String) {\n    // println!(\"this is a comment\")\n    let _ = writeln!(out, \"fine\");\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        println!(\"test output is fine\");\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_schema_literal_outside_defining_file() {
        let diags = lint_at(
            "schemadup",
            "sim",
            "other.rs",
            "pub fn schema() -> &'static str { \"hydra-sweep-v1\" }\n",
        );
        let schema: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "schema-single-source")
            .collect();
        assert_eq!(schema.len(), 1, "{diags:?}");
        assert!(schema[0].message.contains("hydra-sweep-v1"));
        assert!(schema[0].message.contains("SWEEP_SCHEMA_VERSION"));
    }

    #[test]
    fn allows_schema_literal_in_defining_file_tests_and_docs() {
        let root = scratch_dir("schemaok");
        fs::create_dir_all(root.join("crates/telemetry/src")).unwrap();
        fs::create_dir_all(root.join("crates/sim/src")).unwrap();
        fs::write(root.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
        fs::write(
            root.join("crates/telemetry/src/sink.rs"),
            "/// Emits `hydra-trace-v1` headers.\npub const TRACE_SCHEMA_VERSION: &str = \"hydra-trace-v1\";\n",
        )
        .unwrap();
        fs::write(
            root.join("crates/sim/src/user.rs"),
            "/// Consumes `hydra-trace-v1` streams.\npub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert_eq!(\"hydra-trace-v1\".len(), 14);\n    }\n}\n",
        )
        .unwrap();
        let diags = lint_workspace(&root).unwrap();
        let _ = fs::remove_dir_all(&root);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_wrapping_add_on_counter_fields_in_hot_paths() {
        let diags = lint_at(
            "ctr1",
            "core",
            "x.rs",
            "pub struct T { count: u32 }\nimpl T {\n    pub fn bump(&mut self) {\n        self.count += 1;\n    }\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "counter-arithmetic");
        assert_eq!(diags[0].line, 4);
        assert!(diags[0].message.contains("`count`"));
    }

    #[test]
    fn flags_deref_increment_and_indexed_counters() {
        let diags = lint_at(
            "ctr2",
            "baselines",
            "x.rs",
            "pub fn f(c: &mut u32, counters: &mut [u64]) {\n    *c += 1;\n    counters[3] += 1;\n}\n",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "counter-arithmetic"));
    }

    #[test]
    fn flags_narrowing_casts_and_binary_adds() {
        let diags = lint_at(
            "ctr3",
            "forensics",
            "x.rs",
            "pub fn f(count: u32, slot: u64, total: u64) -> (u8, u32, u64) {\n    (count as u8, (slot / 2) as u32, total + 1)\n}\n",
        );
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "counter-arithmetic"));
    }

    #[test]
    fn counter_rule_skips_saturating_tests_and_other_crates() {
        // saturating forms, diagnostic names, widening casts: all clean.
        let clean = lint_at(
            "ctr4",
            "core",
            "x.rs",
            "pub struct T { count: u32, hits: u64 }\nimpl T {\n    pub fn f(&mut self, w: u32) -> u64 {\n        self.count = self.count.saturating_add(1);\n        self.hits += 1;\n        u64::from(w)\n    }\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let mut count = 0u8; count += 1; let _ = count as u8; }\n}\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
        // Same wrapping code outside the hot-path crates: not this rule's
        // business (sim, telemetry, engine have no security counters).
        let other = lint_at(
            "ctr5",
            "telemetry",
            "x.rs",
            "pub fn f(count: &mut u32) { *count += 1; }\n",
        );
        assert!(other.is_empty(), "{other:?}");
    }

    #[test]
    fn counter_findings_are_suppressed_by_justified_allows_only() {
        let justified = lint_at(
            "ctr6",
            "core",
            "x.rs",
            "pub fn f(key: u64) -> u32 {\n    // lint:allow(counter-arithmetic): low 32 bits of a lossless pack\n    key as u32\n}\n",
        );
        assert!(justified.is_empty(), "{justified:?}");
        let bare = lint_at(
            "ctr7",
            "core",
            "x.rs",
            "pub fn f(key: u64) -> u32 {\n    // lint:allow(counter-arithmetic)\n    key as u32\n}\n",
        );
        assert_eq!(bare.len(), 1, "unjustified allow must not suppress");
        let wrong_rule = lint_at(
            "ctr8",
            "core",
            "x.rs",
            "pub fn f(key: u64) -> u32 {\n    // lint:allow(no-unwrap): wrong rule named\n    key as u32\n}\n",
        );
        assert_eq!(wrong_rule.len(), 1, "allow must name the firing rule");
    }

    #[test]
    fn json_output_is_stable_and_escaped() {
        let f = Finding::new(
            "no-unwrap",
            Path::new("src/a \"b\".rs"),
            7,
            "line\nbreak".to_string(),
        );
        let json = findings_to_json(&[f]);
        assert!(json.contains("\"rule\":\"no-unwrap\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"line\":7"));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn every_emitted_rule_id_is_cataloged() {
        for info in &RULES {
            assert_eq!(rule(info.id).id, info.id);
        }
    }

    #[test]
    #[should_panic(expected = "uncataloged")]
    fn uncataloged_rule_ids_panic() {
        let _ = rule("no-such-rule");
    }

    #[test]
    fn the_real_workspace_is_clean() {
        // The gate the CI runs, applied to this very repository.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = lint_workspace(&root).unwrap();
        assert!(
            diags.is_empty(),
            "repository lint failures:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
