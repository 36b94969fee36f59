//! Exporters: folded stacks, schema-versioned JSON, and the human table.

use crate::tree::{ProfileNode, ProfileTree};
use hydra_types::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of the profile JSON export. Single-sourced here (enforced by
/// the `schema-single-source` lint rule): every other call site imports
/// this constant.
pub const PROFILE_SCHEMA_VERSION: &str = "hydra-profile-v1";

impl ProfileTree {
    /// Folded-stack lines consumable by flamegraph.pl / inferno: one line
    /// per node, `phase;child;leaf <self_nanos>`, in deterministic
    /// (depth-first, name-sorted) order. Values are **self** times, so
    /// flamegraph tooling reconstructs inclusive totals by summation —
    /// the folded sum equals [`total_nanos`](Self::total_nanos) whenever
    /// conservation holds.
    pub fn folded_lines(&self) -> Vec<String> {
        fn walk(path: &str, node: &ProfileNode, out: &mut Vec<String>) {
            out.push(format!("{path} {}", node.self_nanos()));
            for (phase, child) in &node.children {
                walk(&format!("{path};{phase}"), child, out);
            }
        }
        let mut out = Vec::new();
        for (phase, node) in &self.roots {
            walk(phase, node, &mut out);
        }
        out
    }

    /// The folded-stack export as one newline-terminated string.
    pub fn to_folded(&self) -> String {
        let mut out = self.folded_lines().join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// The schema-versioned JSON export ([`PROFILE_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        self.to_json_with("")
    }

    /// Like [`to_json`](Self::to_json), with caller-supplied extra
    /// top-level members. `extra` must be empty or a comma-**terminated**
    /// list of JSON members (`"workload":"hammer","acts":100000,`) — the
    /// harness uses this to stamp run metadata into the same object
    /// without a second schema.
    pub fn to_json_with(&self, extra: &str) -> String {
        fn node_json(phase: &str, node: &ProfileNode, out: &mut String) {
            let _ = write!(
                out,
                "{{\"phase\":{},\"count\":{},\"total_nanos\":{},\"self_nanos\":{},\
                 \"min_nanos\":{},\"max_nanos\":{},\"children\":[",
                quote(phase),
                node.count,
                node.total_nanos,
                node.self_nanos(),
                node.min_nanos,
                node.max_nanos
            );
            for (i, (name, child)) in node.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                node_json(name, child, out);
            }
            out.push_str("]}");
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{},{extra}\"unbalanced_exits\":{},\"total_nanos\":{},\
             \"total_self_nanos\":{},\"roots\":[",
            quote(PROFILE_SCHEMA_VERSION),
            self.unbalanced_exits,
            self.total_nanos(),
            self.total_self_nanos()
        );
        for (i, (phase, node)) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            node_json(phase, node, &mut out);
        }
        out.push_str("]}");
        out.push('\n');
        out
    }

    /// A rendered self/cumulative table: one row per node, indented by
    /// depth, with count, cumulative and self time, self share of the
    /// grand total, and per-span min/mean/max.
    pub fn render_table(&self) -> String {
        let grand = self.total_nanos().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>12} {:>12} {:>7} {:>9} {:>9} {:>9}",
            "phase", "count", "total_us", "self_us", "self%", "min_ns", "mean_ns", "max_ns"
        );
        fn row(out: &mut String, depth: usize, phase: &str, node: &ProfileNode, grand: u64) {
            let label = format!("{}{}", "  ".repeat(depth), phase);
            let _ = writeln!(
                out,
                "{:<38} {:>10} {:>12.1} {:>12.1} {:>6.1}% {:>9} {:>9} {:>9}",
                label,
                node.count,
                node.total_nanos as f64 / 1_000.0,
                node.self_nanos() as f64 / 1_000.0,
                node.self_nanos() as f64 * 100.0 / grand as f64,
                node.min_nanos,
                node.mean_nanos(),
                node.max_nanos
            );
            for (name, child) in &node.children {
                row(out, depth + 1, name, child, grand);
            }
        }
        for (phase, node) in &self.roots {
            row(&mut out, 0, phase, node, grand);
        }
        if self.unbalanced_exits > 0 {
            let _ = writeln!(out, "!! unbalanced exits: {}", self.unbalanced_exits);
        }
        out
    }
}

/// A parsed folded-stack export: semicolon-joined stack paths mapped to
/// self-time nanoseconds. The folded format is lossy by design (per-span
/// count/min/max do not survive), but **totals do**: parsing back what
/// [`ProfileTree::to_folded`] emitted preserves every per-stack self time
/// and therefore the grand total — the round-trip contract proptested in
/// `tests/merge_laws.rs`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedProfile {
    /// `stack-path → self nanoseconds`.
    pub stacks: BTreeMap<String, u64>,
}

impl FoldedProfile {
    /// Parses folded-stack text (one `path value` pair per line, blank
    /// lines ignored). Duplicate paths accumulate, matching flamegraph
    /// semantics.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((path, value)) = line.rsplit_once(' ') else {
                return Err(format!("folded line {} has no value: {line:?}", lineno + 1));
            };
            let nanos: u64 = value
                .parse()
                .map_err(|e| format!("folded line {}: bad value {value:?}: {e}", lineno + 1))?;
            let path = path.trim_end();
            if path.is_empty() {
                return Err(format!("folded line {} has an empty path", lineno + 1));
            }
            *stacks.entry(path.to_string()).or_insert(0) += nanos;
        }
        Ok(FoldedProfile { stacks })
    }

    /// The folded view of a tree, computed directly (no text round trip).
    pub fn from_tree(tree: &ProfileTree) -> Self {
        fn walk(path: &str, node: &ProfileNode, stacks: &mut BTreeMap<String, u64>) {
            *stacks.entry(path.to_string()).or_insert(0) += node.self_nanos();
            for (phase, child) in &node.children {
                walk(&format!("{path};{phase}"), child, stacks);
            }
        }
        let mut stacks = BTreeMap::new();
        for (phase, node) in &tree.roots {
            walk(phase, node, &mut stacks);
        }
        FoldedProfile { stacks }
    }

    /// Sum of all self times — the grand total of the profile.
    pub fn total_nanos(&self) -> u64 {
        self.stacks.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{phase, SpanSink};
    use crate::tree::TreeProfiler;

    fn sample_tree() -> ProfileTree {
        let mut spans = TreeProfiler::new();
        spans.enter(phase::SIM);
        for _ in 0..3 {
            spans.enter(phase::ACTIVATE);
            spans.enter(phase::GCT_LOOKUP);
            spans.exit(phase::GCT_LOOKUP);
            spans.exit(phase::ACTIVATE);
        }
        spans.enter(phase::WINDOW_SNAPSHOT);
        spans.exit(phase::WINDOW_SNAPSHOT);
        spans.exit(phase::SIM);
        spans.tree()
    }

    #[test]
    fn folded_lines_carry_full_paths_and_parse_back() {
        let tree = sample_tree();
        let folded = tree.to_folded();
        assert!(folded.contains("sim;activate;gct_lookup "));
        assert!(folded.contains("sim;window_snapshot "));
        assert!(folded.ends_with('\n'));
        let parsed = FoldedProfile::parse(&folded).expect("own output parses");
        assert_eq!(parsed, FoldedProfile::from_tree(&tree));
        assert_eq!(parsed.total_nanos(), tree.total_nanos());
    }

    #[test]
    fn folded_parse_accumulates_duplicates_and_rejects_garbage() {
        let p = FoldedProfile::parse("a;b 10\na;b 5\n\n a;c 1 \n").expect("valid");
        assert_eq!(p.stacks["a;b"], 15);
        assert_eq!(p.total_nanos(), 16);
        assert!(FoldedProfile::parse("a;b\n").is_err(), "no value");
        assert!(FoldedProfile::parse("a;b ten\n").is_err(), "bad number");
        assert!(FoldedProfile::parse(" 12\n").is_err(), "empty path");
    }

    #[test]
    fn empty_tree_folds_to_nothing() {
        let tree = ProfileTree::new();
        assert_eq!(tree.to_folded(), "");
        let parsed = FoldedProfile::parse("").expect("empty ok");
        assert_eq!(parsed.total_nanos(), 0);
    }

    #[test]
    fn json_is_schema_stamped_and_structured() {
        let tree = sample_tree();
        let json = tree.to_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{PROFILE_SCHEMA_VERSION}\",")));
        assert!(json.contains("\"phase\":\"sim\""));
        assert!(json.contains("\"phase\":\"gct_lookup\""));
        assert!(json.contains("\"self_nanos\":"));
        assert!(json.contains("\"unbalanced_exits\":0"));
        assert!(json.trim_end().ends_with("]}"));
        // Extra members land right after the schema tag.
        let with = tree.to_json_with("\"workload\":\"hammer\",\"acts\":5,");
        assert!(with.contains("\"workload\":\"hammer\",\"acts\":5,\"unbalanced_exits\""));
    }

    #[test]
    fn json_escapes_phase_names() {
        // Library phases are clean idents, but the encoder must not trust
        // that: a quoted name must not break the document.
        let mut spans = TreeProfiler::new();
        spans.enter("odd\"phase");
        spans.exit("odd\"phase");
        let json = spans.tree().to_json();
        assert!(json.contains("\"phase\":\"odd\\\"phase\""));
    }

    #[test]
    fn table_lists_every_phase_with_shares() {
        let tree = sample_tree();
        let table = tree.render_table();
        assert!(table.contains("phase"));
        assert!(table.contains("self%"));
        assert!(table.contains("sim"));
        assert!(table.contains("  activate"));
        assert!(table.contains("    gct_lookup"));
        assert!(!table.contains("!! unbalanced"));
    }

    #[test]
    fn table_flags_unbalanced_runs() {
        let mut spans = TreeProfiler::new();
        spans.enter(phase::SIM);
        spans.exit(phase::SPILL);
        spans.exit(phase::SIM);
        let table = spans.tree().render_table();
        assert!(table.contains("!! unbalanced exits: 1"));
    }
}
