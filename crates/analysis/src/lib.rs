//! `spade-lint`: a dependency-free static analyzer for this repository's
//! concurrency, determinism, unit, and schema invariants.
//!
//! All passes run over a hand-rolled token stream (no `syn`; the build
//! container has no registry access). A workspace-wide [`symbols::SymbolIndex`]
//! and name-based [`callgraph::CallGraph`] underpin the cross-file passes:
//!
//! 1. **Lock order** ([`locks`]) — mutex acquisitions must follow the
//!    declared order `state → stream-entry → inflight-slot → budget-tokens`.
//!    Every workspace file that acquires a ranked lock is discovered and
//!    walked; inversions and cross-function cycles are findings.
//! 2. **Determinism taint** ([`determinism`]) — source→sink propagation over
//!    the call graph: hash-container iteration, wall-clock/thread-id reads,
//!    and unseeded RNG construction are flagged in any function that can
//!    feed a pinned export (report tables, rule books, protocol payloads,
//!    cache keys), with the full call chain in the message. The old
//!    hand-maintained file list survives only as a regression cross-check:
//!    taint coverage must stay a superset of it.
//! 3. **Panic surface** ([`panics`]) — potential panics reachable from the
//!    request-handling call graph must be individually justified.
//! 4. **Units of measure** ([`units`]) — cost-model quantities (cycles, ns,
//!    pJ, mJ, mm², bytes, GHz, …) inferred from name suffixes and `// unit:`
//!    annotations may not be added or compared across units.
//! 5. **Export schema** ([`schema`]) — exporter column lists and `STATS`
//!    keys are extracted statically and diffed against the committed goldens
//!    and the keys consumers actually read.
//!
//! Suppressions use `// lint:allow(<lint>): <reason>` with a mandatory
//! reason; `spade-lint --summary` renders them all for the committed
//! allowlist (`crates/analysis/ALLOWLIST.md`) that CI diffs against.
//! `lock-order`, `schema-drift`, and `taint-coverage` findings are not
//! suppressible by design.

pub mod callgraph;
pub mod determinism;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod schema;
pub mod source;
pub mod symbols;
pub mod units;

use callgraph::CallGraph;
use source::{Finding, SourceFile};
use std::collections::BTreeSet;
use std::path::Path;
use symbols::SymbolIndex;

/// Files known to acquire ranked locks. Discovery over the workspace must
/// find at least these; a miss is a hard error (the discovery heuristic has
/// gone stale, not the code).
pub const LOCK_FILES: &[&str] = &["crates/bench/src/serve.rs", "crates/bench/src/pool.rs"];

/// The pre-call-graph determinism scope: result-affecting modules as they
/// were hand-maintained. Kept only as a regression cross-check — the taint
/// pass must report every one of these as sink-reachable, or it emits a
/// non-suppressible `taint-coverage` finding.
pub const DETERMINISM_FILES: &[&str] = &[
    "crates/baselines/src/pointacc.rs",
    "crates/bench/src/adaptive.rs",
    "crates/bench/src/dse.rs",
    "crates/bench/src/loadgen.rs",
    "crates/bench/src/protocol.rs",
    "crates/bench/src/serve.rs",
    "crates/bench/src/workload.rs",
    "crates/core/src/report.rs",
    "crates/nn/src/graph.rs",
    "crates/nn/src/pruning.rs",
    "crates/nn/src/rulegen/hash.rs",
    "crates/nn/src/rulegen/mod.rs",
    "crates/nn/src/rulegen/sort.rs",
    "crates/nn/src/rulegen/streaming.rs",
    "crates/tensor/src/coord.rs",
];

/// Files whose call graph the panic-surface audit covers.
pub const PANIC_FILES: &[&str] = &["crates/bench/src/serve.rs", "crates/bench/src/protocol.rs"];

/// `(exporter file, exporter fn, golden CSV)` triples the table-schema check
/// walks: the fn's base column list must match the golden's header line.
pub const TABLE_SCHEMAS: &[(&str, &str, &str)] = &[(
    "crates/bench/src/dse.rs",
    "to_table",
    "tests/golden/dse_legacy_reduced.csv",
)];

/// The serve-loop formatter file whose `key={}\n` strings define the STATS
/// namespace, the committed golden key list, and the consumers that read
/// keys back.
pub const STATS_PRODUCER: &str = "crates/bench/src/serve.rs";
pub const STATS_GOLDEN: &str = "tests/golden/stats_keys.txt";
pub const STATS_CONSUMERS: &[&str] = &["tests/serve_integration.rs", "crates/bench/src/loadgen.rs"];

/// Everything one full run produces.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed findings, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Count of findings an annotation suppressed.
    pub suppressed: usize,
    /// `(file, lint, reason)` of every parsed annotation, for the summary.
    pub allows: Vec<(String, String, String)>,
    /// Workspace-relative paths the run analyzed (diagnostics / `--json`).
    pub files_analyzed: usize,
}

/// Production `.rs` files the cross-file passes walk: every workspace
/// crate's `src/` tree plus the root facade — not `vendor/` (stub code),
/// not `crates/analysis/fixtures/` (deliberate violations), not `tests/`
/// (integration tests are loaded separately as schema consumers only), and
/// not `examples/` (demo code feeds no pinned export).
pub fn walk_workspace(root: &Path) -> Result<Vec<String>, String> {
    let mut rels = vec!["src/lib.rs".to_string()];
    let crates_dir = root.join("crates");
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(root, &src, &mut rels)?;
        }
    }
    rels.sort();
    Ok(rels)
}

fn collect_rs(root: &Path, dir: &Path, rels: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_rs(root, &path, rels)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            rels.push(rel);
        }
    }
    Ok(())
}

/// Runs every pass over the workspace at `root`.
pub fn analyze_tree(root: &Path) -> Result<Analysis, String> {
    let rels = walk_workspace(root)?;
    // A listed file the walk did not find is a hard error, never a silent
    // skip: a rename must update the list (or the list is stale — either way
    // a human decides).
    let missing: Vec<&str> = LOCK_FILES
        .iter()
        .chain(DETERMINISM_FILES)
        .chain(PANIC_FILES)
        .chain(TABLE_SCHEMAS.iter().map(|(f, _, _)| f))
        .copied()
        .filter(|rel| !rels.iter().any(|r| r == rel))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "listed file(s) missing from the workspace walk: {} — update the lists in \
             crates/analysis/src/lib.rs to match the tree",
            missing.join(", ")
        ));
    }
    let mut files = Vec::new();
    for rel in &rels {
        files.push(load(root, rel)?);
    }

    let index = SymbolIndex::build(&files);
    let graph = CallGraph::build(&files, &index);
    let mut analysis = Analysis {
        files_analyzed: files.len(),
        ..Analysis::default()
    };
    let mut raw: Vec<Finding> = Vec::new();

    // 1. Lock order, over every file that acquires a ranked lock.
    let lock_rels = discover_lock_files(&files);
    for listed in LOCK_FILES {
        if !lock_rels.iter().any(|r| r == listed) {
            return Err(format!(
                "lock-site discovery no longer finds {listed} — the acquisition heuristic \
                 in crates/analysis/src/lib.rs has gone stale"
            ));
        }
    }
    let lock_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| lock_rels.contains(&f.rel))
        .collect();
    raw.extend(locks::lock_order_pass(&lock_files));

    // 2. Determinism taint over the call graph, plus the legacy-list
    //    regression cross-check.
    let taint = determinism::taint_pass(&files, &index, &graph);
    for rel in DETERMINISM_FILES {
        if !taint.covered_files.contains(*rel) {
            raw.push(Finding {
                file: (*rel).to_string(),
                line: 1,
                lint: "taint-coverage",
                message: format!(
                    "{rel} was in the hand-maintained determinism scope but taint analysis \
                     no longer reaches it from any export sink — a sink pattern or call \
                     edge went missing"
                ),
            });
        }
    }
    raw.extend(taint.findings);

    // 3. Panic surface over the serve-path files.
    let panic_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| PANIC_FILES.contains(&f.rel.as_str()))
        .collect();
    raw.extend(panics::panic_pass(&panic_files));

    // 4. Units of measure, workspace-wide.
    for file in &files {
        raw.extend(units::units_pass(file));
    }

    // 5. Export schemas vs goldens and consumers.
    raw.extend(schema_pass(root, &files)?);

    for file in &files {
        raw.extend(file.malformed.iter().cloned());
        for a in &file.allows {
            analysis
                .allows
                .push((file.rel.clone(), a.lint.clone(), a.reason.clone()));
        }
    }
    finish(&files, raw, &mut analysis);
    Ok(analysis)
}

/// Files with at least one ranked-lock acquisition in production code:
/// a `lock_ranked(…)` call or a `recv.lock(…)` site.
fn discover_lock_files(files: &[SourceFile]) -> Vec<String> {
    let mut rels = Vec::new();
    for file in files {
        let toks = file.toks();
        let acquires = file.production_fns().any(|func| {
            func.body.clone().any(|i| {
                let t = &toks[i];
                (t.is_ident("lock_ranked") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
                    || (t.is_ident("lock")
                        && i >= 1
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
            })
        });
        if acquires {
            rels.push(file.rel.clone());
        }
    }
    rels
}

/// The schema-drift pass over the real tree: exporter columns vs golden CSV
/// headers, and STATS keys vs the golden list and consumer reads.
fn schema_pass(root: &Path, files: &[SourceFile]) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let by_rel = |rel: &str| files.iter().find(|f| f.rel == rel);
    for (exporter_rel, fn_name, golden_rel) in TABLE_SCHEMAS {
        let file = by_rel(exporter_rel)
            .ok_or_else(|| format!("{exporter_rel}: not in the workspace walk"))?;
        let golden = read_rel(root, golden_rel)?;
        let header = golden
            .lines()
            .next()
            .ok_or_else(|| format!("{golden_rel}: empty golden"))?;
        match schema::table_columns(file, fn_name) {
            Some(cols) => findings.extend(schema::check_table_against_golden(
                exporter_rel,
                fn_name,
                &cols,
                golden_rel,
                header,
            )),
            None => {
                return Err(format!(
                    "{exporter_rel}: fn `{fn_name}` builds no all-string `vec![…]` column \
                     list the schema extractor recognizes — update the extractor with the \
                     exporter's new shape"
                ))
            }
        }
    }
    let producer = by_rel(STATS_PRODUCER)
        .ok_or_else(|| format!("{STATS_PRODUCER}: not in the workspace walk"))?;
    let produced = schema::keys_produced(producer);
    let golden: BTreeSet<String> = read_rel(root, STATS_GOLDEN)?
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    let mut consumers = Vec::new();
    for rel in STATS_CONSUMERS {
        // Consumers may live outside the production walk (integration tests).
        let consumed = match by_rel(rel) {
            Some(f) => schema::keys_consumed(f),
            None => schema::keys_consumed(&load(root, rel)?),
        };
        consumers.push((*rel, consumed));
    }
    findings.extend(schema::check_stats_keys(
        STATS_PRODUCER,
        &produced,
        STATS_GOLDEN,
        &golden,
        &consumers,
    ));
    Ok(findings)
}

/// Runs a single pass over explicit file paths (fixtures, ad-hoc checks).
pub enum Pass {
    LockOrder,
    /// The determinism taint pass, with the symbol index and call graph
    /// built over exactly the given files.
    Determinism,
    Panics,
    Units,
    /// Table-schema check: the golden CSV whose header the fixture exporter
    /// fns (`fn to_table`) are diffed against.
    Schema(String),
}

pub fn analyze_files(paths: &[String], pass: &Pass) -> Result<Analysis, String> {
    let mut files = Vec::new();
    for p in paths {
        let src = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        files.push(SourceFile::parse(p, &src));
    }
    let refs: Vec<&SourceFile> = files.iter().collect();
    let mut raw = match pass {
        Pass::LockOrder => locks::lock_order_pass(&refs),
        Pass::Determinism => {
            let index = SymbolIndex::build(&files);
            let graph = CallGraph::build(&files, &index);
            determinism::taint_pass(&files, &index, &graph).findings
        }
        Pass::Panics => panics::panic_pass(&refs),
        Pass::Units => files.iter().flat_map(units::units_pass).collect(),
        Pass::Schema(golden_path) => {
            let golden =
                std::fs::read_to_string(golden_path).map_err(|e| format!("{golden_path}: {e}"))?;
            let header = golden
                .lines()
                .next()
                .ok_or_else(|| format!("{golden_path}: empty golden"))?;
            let mut findings = Vec::new();
            for file in &files {
                let Some(cols) = schema::table_columns(file, "to_table") else {
                    return Err(format!("{}: no `to_table` column list found", file.rel));
                };
                findings.extend(schema::check_table_against_golden(
                    &file.rel,
                    "to_table",
                    &cols,
                    golden_path,
                    header,
                ));
            }
            findings
        }
    };
    for file in &files {
        raw.extend(file.malformed.iter().cloned());
    }
    let mut analysis = Analysis {
        files_analyzed: files.len(),
        ..Analysis::default()
    };
    for file in &files {
        for a in &file.allows {
            analysis
                .allows
                .push((file.rel.clone(), a.lint.clone(), a.reason.clone()));
        }
    }
    finish(&files, raw, &mut analysis);
    Ok(analysis)
}

fn load(root: &Path, rel: &str) -> Result<SourceFile, String> {
    Ok(SourceFile::parse(rel, &read_rel(root, rel)?))
}

fn read_rel(root: &Path, rel: &str) -> Result<String, String> {
    let path = root.join(rel);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Applies annotation suppression and sorts what remains.
fn finish(files: &[SourceFile], raw: Vec<Finding>, analysis: &mut Analysis) {
    for finding in raw {
        let allowed = source::ALLOW_LINTS.contains(&finding.lint)
            && files
                .iter()
                .find(|f| f.rel == finding.file)
                .is_some_and(|f| f.allowed(finding.lint, finding.line));
        if allowed {
            analysis.suppressed += 1;
        } else {
            analysis.findings.push(finding);
        }
    }
    analysis.findings.sort();
    analysis.findings.dedup();
    analysis.allows.sort();
}

/// Renders the committed allowlist. Deliberately line-number-free so the
/// file stays stable under unrelated edits; CI diffs it to make every new
/// suppression visible in review.
pub fn render_summary(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("# spade-lint allowlist\n\n");
    out.push_str(
        "Every `lint:allow` annotation in the tree, by file. Regenerate with:\n\n\
         ```\n\
         cargo run -q -p spade-analysis --bin spade-lint -- --summary > crates/analysis/ALLOWLIST.md\n\
         ```\n\n",
    );
    let mut last_file = "";
    for (file, lint, reason) in &analysis.allows {
        if file != last_file {
            out.push_str(&format!("\n## {file}\n\n"));
            last_file = file;
        }
        out.push_str(&format!("- **{lint}** — {reason}\n"));
    }
    out.push_str(&format!(
        "\n---\n{} annotations across {} files.\n",
        analysis.allows.len(),
        analysis
            .allows
            .iter()
            .map(|(f, _, _)| f)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    ));
    out
}

/// Renders one run as a JSON object (machine-readable CI artifact). Emitted
/// by hand — the analyzer is deliberately dependency-free.
pub fn render_json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"lint\": {}, \"message\": {}}}",
            json_str(&f.file),
            f.line,
            json_str(f.lint),
            json_str(&f.message)
        ));
    }
    if !analysis.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"allows\": [");
    for (i, (file, lint, reason)) in analysis.allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"lint\": {}, \"reason\": {}}}",
            json_str(file),
            json_str(lint),
            json_str(reason)
        ));
    }
    if !analysis.allows.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"suppressed\": {},\n  \"files_analyzed\": {}\n}}\n",
        analysis.suppressed, analysis.files_analyzed
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
