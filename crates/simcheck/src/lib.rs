//! Workspace-aware static determinism analyzer for the simulation tree.
//!
//! The DES promises bit-identical replays from a seed. That promise is easy
//! to break from anywhere: one `Instant::now()` behind a helper function,
//! one `HashMap` iteration feeding task scheduling, one float `sort_by`
//! collapsing NaN to `Equal` on the way into the event schedule. `simcheck`
//! is the static half of the defense (the DES's trace hash and quiescence
//! reports are the runtime half): a multi-pass analyzer built from
//!
//! 1. a dependency-free, multi-line-aware lexer ([`lexer`]) — raw strings,
//!    nested block comments, char/lifetime disambiguation;
//! 2. a workspace symbol index ([`index`]) — per-crate module map, fn
//!    definitions with impl context, `use` renames;
//! 3. a call-graph taint pass ([`taint`]) — wall-clock / OS-entropy /
//!    thread-spawn sources propagate transitively, so a wrapper around
//!    `SystemTime::now()` taints every sim-visible caller, and findings
//!    carry the full call chain;
//! 4. the rule families ([`rules`]): `wall-clock`, `os-entropy`,
//!    `thread-spawn`, `unordered-map`, `yield-borrow`, `float-ord`,
//!    `stale-allow`, `match-leak`.
//!
//! Findings carry a severity tier from the root they came from (sim-visible
//! crate sources are `deny`, host-side and test code `warn`), a stable
//! fingerprint for `--baseline` ratcheting, and — for taint findings — the
//! call chain down to the concrete source line. A finding on line N is
//! suppressed by a `simcheck: allow` line comment naming the rule, on line
//! N itself or alone on line N-1; suppressions that suppress nothing are
//! themselves findings (`stale-allow`).

pub mod index;
pub mod lexer;
pub mod rules;
pub mod taint;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use index::Workspace;
use rules::stale_allow::DirectiveKey;
use rules::RawFinding;
pub use rules::{Rule, Severity};

/// One source file handed to the analyzer.
pub struct SourceSpec {
    /// Display path (used in reports, crate grouping, and fingerprints).
    pub path: String,
    /// Severity tier for findings in this file.
    pub tier: Severity,
    /// File contents.
    pub source: String,
}

/// One reported hazard.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Display path of the file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Severity tier (from the scanned root).
    pub severity: Severity,
    /// Specifics (what matched; for taint findings, what is reached).
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Call chain for taint findings (empty otherwise): call site →
    /// intermediate calls → concrete source line.
    pub chain: Vec<String>,
    /// Stable fingerprint (`f-<16 hex>`): rule + file + normalized snippet
    /// + occurrence index — survives unrelated line drift, for baselines.
    pub fingerprint: String,
}

/// The result of one analysis run.
pub struct Analysis {
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Findings that are not in `baseline`, i.e. would fail a gated run.
    pub fn new_deny<'a>(&'a self, baseline: &BTreeSet<String>) -> Vec<&'a Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny && !baseline.contains(&f.fingerprint))
            .collect()
    }
}

/// Runs the full pipeline over in-memory sources.
pub fn analyze_sources(specs: Vec<SourceSpec>) -> Analysis {
    let files_scanned = specs.len();
    let ws = Workspace::build(
        specs
            .into_iter()
            .map(|s| (s.path, s.tier, s.source))
            .collect(),
    );

    // Per-file rule passes (pre-suppression).
    let mut raw: Vec<RawFinding> = Vec::new();
    for fi in 0..ws.files.len() {
        rules::tokens::scan(&ws, fi, &mut raw);
        rules::float_ord::scan(&ws, fi, &mut raw);
        rules::yield_borrow::scan(&ws, fi, &mut raw);
        rules::match_leak::scan(&ws, fi, &mut raw);
    }

    // Suppression pass 1: drop allowed findings, remembering which
    // directives earned their keep.
    let mut used: BTreeSet<DirectiveKey> = BTreeSet::new();
    let mut kept = apply_suppressions(&ws, raw, &mut used);

    // Taint pass: unsuppressed direct sources seed the call-graph walk.
    let seeds: Vec<(usize, u32, Rule, String)> = kept
        .iter()
        .filter(|f| {
            matches!(
                f.rule,
                Rule::WallClock | Rule::OsEntropy | Rule::ThreadSpawn
            )
        })
        .map(|f| (f.file, f.line, f.rule, f.message.clone()))
        .collect();
    let edges = taint::call_edges(&ws);
    let taint_raw: Vec<RawFinding> = taint::propagate(&ws, &edges, &seeds)
        .into_iter()
        .map(|t| RawFinding {
            file: t.file,
            line: t.line,
            rule: t.rule,
            message: t.message,
            chain: t.chain,
        })
        .collect();
    kept.extend(apply_suppressions(&ws, taint_raw, &mut used));

    // Stale-allow pass: every directive that suppressed nothing.
    let mut stale: Vec<RawFinding> = Vec::new();
    rules::stale_allow::scan(&ws, &used, &mut stale);
    kept.extend(apply_suppressions(&ws, stale, &mut used));

    // Finalize: display paths, severity, snippets, sort, fingerprints.
    let mut findings: Vec<Finding> = kept
        .into_iter()
        .map(|f| {
            let entry = &ws.files[f.file];
            Finding {
                file: entry.path.clone(),
                line: f.line as usize,
                rule: f.rule,
                severity: entry.tier,
                message: f.message,
                snippet: entry
                    .raw_lines
                    .get(f.line as usize - 1)
                    .map_or("", |s| s.trim())
                    .to_string(),
                chain: f.chain,
                fingerprint: String::new(),
            }
        })
        .collect();
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule.name(), &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule.name(),
            &b.message,
        ))
    });
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for f in &mut findings {
        let norm: String = f.snippet.split_whitespace().collect::<Vec<_>>().join(" ");
        let mut occurrence = 0usize;
        loop {
            let fp = format!(
                "f-{:016x}",
                fnv1a64(&format!(
                    "{}|{}|{}|{}",
                    f.rule.name(),
                    f.file,
                    norm,
                    occurrence
                ))
            );
            if seen.insert(fp.clone()) {
                f.fingerprint = fp;
                break;
            }
            occurrence += 1;
        }
    }
    Analysis {
        findings,
        files_scanned,
    }
}

/// Drops findings covered by an allow directive, recording directive usage.
fn apply_suppressions(
    ws: &Workspace,
    raw: Vec<RawFinding>,
    used: &mut BTreeSet<DirectiveKey>,
) -> Vec<RawFinding> {
    let mut kept = Vec::new();
    for f in raw {
        match ws.files[f.file]
            .lexed
            .suppressed(f.line as usize, f.rule.name())
        {
            Some(dir_line) => {
                used.insert((f.file, dir_line as u32, f.rule.name().to_string()));
            }
            None => kept.push(f),
        }
    }
    kept
}

/// FNV-1a over a string.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Scans a single in-memory file at deny tier (per-file rules + intra-file
/// taint). Unit-test convenience; the CLI always goes through [`analyze`].
pub fn scan_source(file: &str, source: &str) -> Vec<Finding> {
    analyze_sources(vec![SourceSpec {
        path: file.to_string(),
        tier: Severity::Deny,
        source: source.to_string(),
    }])
    .findings
}

/// Recursively collects `.rs` files under `root`, sorted for determinism.
fn rs_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Scans every `.rs` file under the tiered roots. Display paths are made
/// relative to `strip_prefix` when given (keeps fingerprints machine-
/// independent for baselines).
pub fn analyze(
    roots: &[(PathBuf, Severity)],
    strip_prefix: Option<&Path>,
) -> std::io::Result<Analysis> {
    let mut specs = Vec::new();
    for (root, tier) in roots {
        let mut files = Vec::new();
        rs_files(root, &mut files)?;
        for file in files {
            let display = strip_prefix
                .and_then(|p| file.strip_prefix(p).ok())
                .unwrap_or(&file)
                .display()
                .to_string()
                .replace('\\', "/");
            specs.push(SourceSpec {
                path: display,
                tier: *tier,
                source: std::fs::read_to_string(&file)?,
            });
        }
    }
    Ok(analyze_sources(specs))
}

/// Back-compat helper: scans paths at deny tier.
pub fn scan_paths(roots: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let tiered: Vec<(PathBuf, Severity)> =
        roots.iter().map(|r| (r.clone(), Severity::Deny)).collect();
    Ok(analyze(&tiered, None)?.findings)
}

/// Sim-visible source roots: findings here are `deny` severity — they can
/// put nondeterminism directly into an event schedule or a result record.
pub const DENY_ROOTS: [&str; 7] = [
    "crates/des/src",
    "crates/net/src",
    "crates/store/src",
    "crates/hdfs/src",
    "crates/core/src",
    "crates/obs/src",
    "crates/workloads/src",
];

/// Host-side and test roots: scanned, but findings are `warn` severity.
/// `cluster` and `bench` legitimately parallelise whole (single-threaded)
/// `Sim`s across OS threads and time real benchmarks — intentional sites
/// carry inline justifications instead of being exempt from scanning.
/// `crates/simcheck/tests` is excluded: its fixture corpus is hazardous on
/// purpose.
pub const WARN_ROOTS: [&str; 10] = [
    "crates/bench/src",
    "crates/cluster/src",
    "crates/core/tests",
    "crates/des/tests",
    "crates/hdfs/tests",
    "crates/simcheck/src",
    "crates/store/tests",
    "examples",
    "src",
    "tests",
];

/// The default tiered scan roots, joined onto `workspace` and filtered to
/// the ones that exist.
pub fn default_roots(workspace: &Path) -> Vec<(PathBuf, Severity)> {
    DENY_ROOTS
        .iter()
        .map(|r| (r, Severity::Deny))
        .chain(WARN_ROOTS.iter().map(|r| (r, Severity::Warn)))
        .map(|(r, s)| (workspace.join(r), s))
        .filter(|(p, _)| p.exists())
        .collect()
}

/// Renders findings as human-readable text, one block per finding.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: {} [{}] {}\n    {}\n",
            f.file,
            f.line,
            f.severity.name(),
            f.rule.name(),
            f.message,
            f.snippet,
        ));
        for (i, hop) in f.chain.iter().enumerate() {
            out.push_str(&format!("    {}{}\n", "  ".repeat(i), hop));
        }
        out.push_str(&format!("    note: {}\n", f.rule.why()));
    }
    let per_rule: Vec<String> = Rule::ALL
        .iter()
        .map(|r| (r, findings.iter().filter(|f| f.rule == *r).count()))
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| format!("{} {}", n, r.name()))
        .collect();
    if findings.is_empty() {
        out.push_str("simcheck: no determinism hazards found\n");
    } else {
        let deny = findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count();
        out.push_str(&format!(
            "simcheck: {} finding(s) ({} deny, {} warn): {}\n",
            findings.len(),
            deny,
            findings.len() - deny,
            per_rule.join(", ")
        ));
    }
    out
}

/// Escapes a JSON string literal body.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the analysis as a SARIF-style JSON report: rule metadata under
/// `tool.rules`, findings with severity / chain / fingerprint, and a
/// summary block. Hand-rolled, matching the workspace's serde-free
/// convention.
pub fn render_json(analysis: &Analysis, baseline: &BTreeSet<String>) -> String {
    let rules_meta: Vec<String> = Rule::ALL
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"summary\":\"{}\",\"why\":\"{}\",\"remedy\":\"{}\"}}",
                r.name(),
                json_escape(r.summary()),
                json_escape(r.why()),
                json_escape(r.remedy()),
            )
        })
        .collect();
    let items: Vec<String> = analysis
        .findings
        .iter()
        .map(|f| {
            let chain: Vec<String> = f
                .chain
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c)))
                .collect();
            format!(
                "{{\"rule\":\"{}\",\"severity\":\"{}\",\"baselined\":{},\"file\":\"{}\",\
                 \"line\":{},\"message\":\"{}\",\"snippet\":\"{}\",\"chain\":[{}],\
                 \"fingerprint\":\"{}\"}}",
                f.rule.name(),
                f.severity.name(),
                baseline.contains(&f.fingerprint),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message),
                json_escape(&f.snippet),
                chain.join(","),
                f.fingerprint,
            )
        })
        .collect();
    let deny = analysis
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let baselined = analysis
        .findings
        .iter()
        .filter(|f| baseline.contains(&f.fingerprint))
        .count();
    format!(
        "{{\"schema\":\"simcheck/2\",\"tool\":{{\"name\":\"simcheck\",\"rules\":[{}]}},\
         \"findings\":[{}],\"summary\":{{\"total\":{},\"deny\":{},\"warn\":{},\
         \"baselined\":{},\"new_deny\":{},\"files\":{}}}}}\n",
        rules_meta.join(","),
        items.join(","),
        analysis.findings.len(),
        deny,
        analysis.findings.len() - deny,
        baselined,
        analysis.new_deny(baseline).len(),
        analysis.files_scanned,
    )
}

/// Loads a baseline file: the set of grandfathered fingerprints.
pub fn load_baseline(path: &Path) -> std::io::Result<BTreeSet<String>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .split('"')
        .filter(|s| s.starts_with("f-") && s.len() == 18)
        .map(str::to_string)
        .collect())
}

/// Serializes a baseline for `--update-baseline`.
pub fn render_baseline(analysis: &Analysis) -> String {
    let fps: Vec<String> = analysis
        .findings
        .iter()
        .map(|f| format!("\"{}\"", f.fingerprint))
        .collect();
    format!(
        "{{\"schema\":\"simcheck-baseline/1\",\"fingerprints\":[{}]}}\n",
        fps.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<Rule> {
        scan_source("crates/x/src/t.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn same_line_suppression_applies_and_is_not_stale() {
        assert!(rules_of("let m = HashMap::new(); // simcheck: allow(unordered-map)").is_empty());
    }

    #[test]
    fn preceding_line_suppression_applies() {
        let src = "// not iterated, key order irrelevant: simcheck: allow(unordered-map)\n\
                   let m = HashMap::new();\n";
        assert!(rules_of(src).is_empty());
        // ...but only for the named rule — and the mismatched directive is
        // itself reported as stale.
        let wrong = "// simcheck: allow(float-ord)\nlet m = HashMap::new();\n";
        assert_eq!(rules_of(wrong), vec![Rule::StaleAllow, Rule::UnorderedMap]);
    }

    #[test]
    fn suppression_does_not_leak_past_one_line() {
        let src = "// simcheck: allow(unordered-map)\n\
                   let a = 1;\n\
                   let m = HashMap::new();\n";
        let got = rules_of(src);
        assert!(got.contains(&Rule::UnorderedMap), "{got:?}");
        assert!(got.contains(&Rule::StaleAllow), "{got:?}");
    }

    #[test]
    fn block_comments_and_strings_are_ignored() {
        let src = "/* thread::spawn(|| {}) */\nlet s = \"Instant::now()\";\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn suppressed_source_does_not_taint_callers() {
        let src = "fn host_timer() -> u64 {\n\
                   let t = Instant::now(); // simcheck: allow(wall-clock) bench-only ETA\n\
                   t.elapsed().as_nanos() as u64\n\
                   }\n\
                   fn caller() -> u64 { host_timer() }\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn unsuppressed_source_taints_callers_with_chain() {
        let src = "fn stamp() -> u64 {\n\
                   let t = Instant::now();\n\
                   0\n\
                   }\n\
                   fn caller() -> u64 { stamp() }\n";
        let findings = scan_source("crates/x/src/t.rs", src);
        let taint = findings
            .iter()
            .find(|f| f.line == 5)
            .expect("call site flagged");
        assert_eq!(taint.rule, Rule::WallClock);
        assert_eq!(taint.chain.len(), 2, "{:?}", taint.chain);
    }

    #[test]
    fn severity_tracks_tier() {
        let warn = analyze_sources(vec![SourceSpec {
            path: "tests/t.rs".into(),
            tier: Severity::Warn,
            source: "let m = HashMap::new();".into(),
        }]);
        assert_eq!(warn.findings[0].severity, Severity::Warn);
        assert!(warn.new_deny(&BTreeSet::new()).is_empty());
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let src = "let a = HashMap::new();\nlet b = 1;\nlet a = HashMap::new();\n";
        let f1 = scan_source("crates/x/src/t.rs", src);
        let f2 = scan_source("crates/x/src/t.rs", src);
        let fp1: Vec<&String> = f1.iter().map(|f| &f.fingerprint).collect();
        let fp2: Vec<&String> = f2.iter().map(|f| &f.fingerprint).collect();
        assert_eq!(fp1, fp2);
        let set: BTreeSet<&String> = fp1.iter().copied().collect();
        assert_eq!(set.len(), fp1.len(), "duplicate fingerprints");
    }

    #[test]
    fn baseline_gates_only_new_deny_findings() {
        let src = "let m = HashMap::new();\n";
        let analysis = analyze_sources(vec![SourceSpec {
            path: "crates/x/src/t.rs".into(),
            tier: Severity::Deny,
            source: src.into(),
        }]);
        assert_eq!(analysis.new_deny(&BTreeSet::new()).len(), 1);
        let baseline: BTreeSet<String> = analysis
            .findings
            .iter()
            .map(|f| f.fingerprint.clone())
            .collect();
        assert!(analysis.new_deny(&baseline).is_empty());
        // Round-trip through the serialized form.
        let text = render_baseline(&analysis);
        let parsed: BTreeSet<String> = text
            .split('"')
            .filter(|s| s.starts_with("f-") && s.len() == 18)
            .map(str::to_string)
            .collect();
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn json_report_is_well_formed() {
        let analysis = analyze_sources(vec![SourceSpec {
            path: "a.rs".into(),
            tier: Severity::Deny,
            source: "let t = Instant::now();\n".into(),
        }]);
        let json = render_json(&analysis, &BTreeSet::new());
        assert!(json.contains("\"schema\":\"simcheck/2\""));
        assert!(json.contains("\"rule\":\"wall-clock\""));
        assert!(json.contains("\"new_deny\":1"));
        assert!(json.contains("\"fingerprint\":\"f-"));
        // Rule metadata rides along for report consumers.
        assert!(json.contains("\"id\":\"match-leak\""));
    }
}
