//! Repo-wide static-analysis harness: `cargo run -p datacell-bench --bin lint`.
//!
//! Five passes, all of which must come back clean for the binary to exit 0:
//!
//! 1. **Plan corpus verification** — every query in
//!    [`datacell_sql::corpus`] is parsed, optimized, compiled, verified with
//!    [`datacell_plan::verify_all`] against the corpus stream schemas, run
//!    through the incremental rewriter under `checked_pass`, and the
//!    resulting [`IncrementalPlan`] re-checked with
//!    [`datacell_core::verify_incremental`]. Each query is also registered
//!    on a live [`Engine`] with verification forced on, so the
//!    registration-time typed analyzer sees it too.
//! 2. **Stray-unwrap scan** — library crates (kernel, basket, plan, core,
//!    sql, sysx) may not call `.unwrap()` outside `#[cfg(test)]` modules.
//!    Error paths must flow through the crate error types; a deliberate
//!    exception carries a `// lint: allow-unwrap` marker on the same line.
//! 3. **Lock-discipline audit** — the concurrency hot spots
//!    (`basket::sharded`, `kernel::par`, `core::scheduler`) are held to a
//!    textual locking discipline: scoped fork-join only (no
//!    `thread::spawn` outside tests), no shared-state locks at all inside
//!    `kernel::par`, no lock guard created in an `if let`/`while let`
//!    scrutinee (the guard silently lives for the whole body), every
//!    lock a `Mutex` leaf (no `.lock()` while a let-bound guard is live),
//!    and no lock acquired inside a `thread::scope` fan-out block —
//!    scoped workers must own their data outright (the parallel seal
//!    collects staged segments *before* spawning its stitchers for
//!    exactly this reason).
//! 4. **Exposition conformance** — a live engine runs a small
//!    three-axis workload, its telemetry snapshot (plus the network
//!    edge's `datacell_net_*` families, parse-time histogram included)
//!    is rendered to
//!    Prometheus text and re-parsed with the strict
//!    `datacell_telemetry::parse_text` validator, and every exposed
//!    family must carry help text (a counter registered without help is
//!    a finding, not a style nit: the help line is the only
//!    documentation an operator's scrape ever sees).
//! 5. **Unsafe audit** — first-party Rust (every crate, the facade's
//!    tests and examples, the wirebench package) may write `unsafe` only in
//!    [`UNSAFE_HOME`], the `poll(2)` declaration of the network edge, and
//!    every `unsafe` there sits under a comment block holding a
//!    `// SAFETY:` line. Comments and string literals do not count.

use datacell_core::{rewrite, verify_incremental, Engine, EngineConfig};
use datacell_kernel::{Column, DataType};
use datacell_plan::verify::{NoSchema, SchemaOverlay};
use datacell_plan::{compile, optimize, verify_all};
use datacell_sql::{corpus, corpus_streams, parse};
use datacell_telemetry::{parse_text, render_text};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace layout").to_owned()
}

/// One failed check, with enough location to act on.
struct Finding {
    pass: &'static str,
    site: String,
    message: String,
}

impl Finding {
    fn new(pass: &'static str, site: impl Into<String>, message: impl Into<String>) -> Finding {
        Finding { pass, site: site.into(), message: message.into() }
    }
}

fn main() {
    // Force every gated verifier on, release build or not: compile/exec
    // pre-checks, `checked_pass` around rewriter passes, and the
    // incremental-safety check all key off this variable.
    std::env::set_var("DATACELL_VERIFY", "1");

    let mut findings = Vec::new();
    let n_queries = lint_corpus(&mut findings);
    let n_files = lint_unwraps(&mut findings);
    let n_audited = lint_locks(&mut findings);
    let n_families = lint_exposition(&mut findings);
    let n_sources = lint_unsafe(&mut findings);

    println!(
        "lint: {n_queries} corpus queries verified, {n_files} library files scanned for unwrap, \
         {n_audited} concurrency files audited, {n_families} telemetry families checked, \
         {n_sources} source files audited for unsafe"
    );
    if findings.is_empty() {
        println!("lint: clean");
        return;
    }
    for f in &findings {
        eprintln!("lint[{}] {}: {}", f.pass, f.site, f.message);
    }
    eprintln!("lint: {} finding(s)", findings.len());
    std::process::exit(1);
}

// ---------------------------------------------------------------------------
// Pass 1: plan corpus verification.
// ---------------------------------------------------------------------------

fn lint_corpus(findings: &mut Vec<Finding>) -> usize {
    let streams = corpus_streams();
    let mut engine = Engine::with_config(EngineConfig { verify: true, ..EngineConfig::from_env() });
    for (name, schema) in &streams {
        engine.create_stream(name, schema).expect("corpus stream registration");
    }

    let entries = corpus();
    for (name, sql) in &entries {
        // The standalone pipeline first: parse -> optimize -> compile ->
        // verify_all with the corpus schemas, reporting *every* diagnostic
        // (engine registration would stop at the first).
        let q = match parse(sql) {
            Ok(q) => q,
            Err(e) => {
                findings.push(Finding::new("corpus", *name, format!("parse failed: {e}")));
                continue;
            }
        };
        let lp = optimize(q.plan);
        let mal = match compile(&lp) {
            Ok(m) => m,
            Err(e) => {
                findings.push(Finding::new("corpus", *name, format!("compile failed: {e}")));
                continue;
            }
        };
        let mut schema = SchemaOverlay::new(&NoSchema);
        for (s, cols) in &streams {
            schema = schema.with_stream(
                (*s).to_owned(),
                cols.iter().map(|&(c, t)| (c.to_owned(), t)).collect(),
            );
        }
        for err in verify_all(&mal, &schema) {
            let mut msg = format!("verifier diagnostic: {err}");
            let _ = write!(msg, "\n{}", mal.explain());
            findings.push(Finding::new("corpus", *name, msg));
        }
        // The rewriter runs expand_avg under checked_pass
        // (DATACELL_VERIFY is set above), then the incremental plan is
        // re-checked for ring discipline.
        match rewrite(&mal) {
            Ok(inc) => {
                if let Err(e) = verify_incremental(&inc) {
                    findings.push(Finding::new("corpus", *name, format!("incremental: {e}")));
                }
            }
            Err(e) => {
                findings.push(Finding::new("corpus", *name, format!("rewrite failed: {e}")));
            }
        }
        // And the full engine path: registration must accept every corpus
        // query with the typed analyzer on.
        if let Err(e) = engine.register_sql(sql) {
            findings.push(Finding::new("corpus", *name, format!("engine rejected: {e}")));
        }
    }
    entries.len()
}

// ---------------------------------------------------------------------------
// Pass 2: stray-unwrap scan over library crates.
// ---------------------------------------------------------------------------

/// Library crates held to the no-unwrap rule. `bench` is exempt: its
/// binaries are workload harnesses where aborting on malformed setup is the
/// right behavior.
const LIBRARY_CRATES: &[&str] =
    &["telemetry", "kernel", "basket", "plan", "core", "sql", "net", "sysx"];

fn lint_unwraps(findings: &mut Vec<Finding>) -> usize {
    let root = repo_root();
    let mut files = Vec::new();
    for krate in LIBRARY_CRATES {
        collect_rs(&root.join("crates").join(krate).join("src"), &mut files);
    }
    files.sort();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source file");
        let rel = path.strip_prefix(&root).unwrap_or(path).display().to_string();
        for (lineno, line) in text.lines().enumerate() {
            // Test modules sit at the tail of each file; everything from
            // the marker down is exercised only under `cargo test`.
            if line.contains("#[cfg(test)]") {
                break;
            }
            if line.contains(".unwrap()") && !line.contains("lint: allow-unwrap") {
                findings.push(Finding::new(
                    "unwrap",
                    format!("{rel}:{}", lineno + 1),
                    "library code may not .unwrap(); return the crate error type \
                     (or mark a proven-infallible site with `// lint: allow-unwrap`)",
                ));
            }
        }
    }
    files.len()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 3: lock-discipline audit.
// ---------------------------------------------------------------------------

/// Files holding the engine's shared mutable state, relative to the repo
/// root. `kernel::par` is additionally held to a no-locks rule: its
/// parallelism is pure scoped fork-join over disjoint partitions.
const AUDITED: &[(&str, bool)] = &[
    ("crates/basket/src/sharded.rs", false),
    ("crates/core/src/scheduler.rs", false),
    ("crates/kernel/src/par/mod.rs", true),
    ("crates/kernel/src/par/select.rs", true),
    ("crates/kernel/src/par/join.rs", true),
    ("crates/kernel/src/par/aggregate.rs", true),
    ("crates/kernel/src/par/fetch.rs", true),
    ("crates/kernel/src/par/sort.rs", true),
];

fn lint_locks(findings: &mut Vec<Finding>) -> usize {
    let root = repo_root();
    for &(rel, lock_free) in AUDITED {
        // A moved or merged file must fail the audit, not leave it.
        match std::fs::read_to_string(root.join(rel)) {
            Ok(text) => audit_file(rel, &text, lock_free, findings),
            Err(e) => findings.push(Finding::new("locks", rel, format!("audited file: {e}"))),
        }
    }
    AUDITED.len()
}

/// A live let-bound `Mutex` guard: indentation of the binding and its
/// line.
struct Guard {
    indent: usize,
    line: usize,
}

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

fn audit_file(rel: &str, text: &str, lock_free: bool, findings: &mut Vec<Finding>) {
    let mut guards: Vec<Guard> = Vec::new();
    // Indentation of each open `thread::scope(` fan-out block.
    let mut scopes: Vec<usize> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        let site = format!("{rel}:{}", lineno + 1);
        let trimmed = line.trim_start();

        if trimmed.contains("thread::spawn") {
            findings.push(Finding::new(
                "locks",
                site,
                "unscoped thread::spawn in audited code; use std::thread::scope \
                 so joins are enforced and borrows stay checked",
            ));
            continue;
        }

        // Close guards/scopes whose scope ended: a closing brace at or
        // left of the binding's indentation.
        if trimmed.starts_with('}') {
            guards.retain(|g| g.indent < indent_of(line));
            scopes.retain(|&ind| ind < indent_of(line));
        }
        if line.contains("thread::scope(") {
            scopes.push(indent_of(line));
        }

        if !line.contains(".lock()") {
            continue;
        }
        if lock_free {
            findings.push(Finding::new(
                "locks",
                site,
                "kernel::par must stay lock-free: scoped fork-join over \
                 disjoint partitions only",
            ));
            continue;
        }
        if !scopes.is_empty() {
            findings.push(Finding::new(
                "locks",
                site.clone(),
                "lock acquired inside a thread::scope fan-out block; collect \
                 shared state before spawning — scoped workers must own \
                 their data outright (see the parallel seal's phase split)",
            ));
        }
        if trimmed.starts_with("if let") || trimmed.starts_with("while let") {
            findings.push(Finding::new(
                "locks",
                site,
                "lock acquired in an `if let`/`while let` scrutinee: the guard \
                 lives for the whole body, not just the condition; bind and \
                 drop it in its own statement",
            ));
            continue;
        }
        if let Some(holder) = guards.first() {
            findings.push(Finding::new(
                "locks",
                site,
                format!(
                    "lock acquired while the Mutex guard from line {} is live; \
                     Mutex guards are leaves in the lock order",
                    holder.line + 1
                ),
            ));
        }
        // Only let-bound guards outlive their statement; temporaries
        // (`x.lock().field` chains) drop at the semicolon.
        if trimmed.starts_with("let ") {
            guards.push(Guard { indent: indent_of(line), line: lineno });
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 4: exposition conformance.
// ---------------------------------------------------------------------------

/// Run a small three-axis workload and hold the engine's exposition, with
/// the network edge's families folded in as `/metrics` serves them, to the
/// strict parser plus the every-family-has-help rule. Returns the number of
/// families checked.
fn lint_exposition(findings: &mut Vec<Finding>) -> usize {
    let mut e = Engine::with_config(EngineConfig {
        workers: 2,
        partitions: 2,
        basket_shards: 2,
        ..EngineConfig::from_env()
    });
    e.create_stream("lint_s", &[("k", DataType::Int), ("v", DataType::Int)])
        .expect("lint stream registration");
    e.register_sql("SELECT k, sum(v) FROM lint_s GROUP BY k WINDOW SIZE 32 SLIDE 16")
        .expect("lint query registration");
    let ks: Vec<i64> = (0..128).map(|i| i % 4).collect();
    let vs: Vec<i64> = (0..128).collect();
    e.append("lint_s", &[Column::Int(ks), Column::Int(vs)]).expect("lint append");
    e.run_until_idle().expect("lint drain");

    let mut snap = e.telemetry_snapshot();
    let net = datacell_net::NetStats::new();
    for h in [&net.parse_seconds, &net.render_seconds, &net.write_seconds] {
        h.record(std::time::Duration::from_micros(1));
    }
    net.extend_snapshot(&mut snap);
    let text = render_text(&snap);
    let parsed = match parse_text(&text) {
        Ok(p) => p,
        Err(err) => {
            findings.push(Finding::new(
                "exposition",
                "Engine::telemetry_snapshot",
                format!("rendered exposition rejected by the strict parser: {err}"),
            ));
            return 0;
        }
    };
    for name in parsed.families_without_help() {
        findings.push(Finding::new(
            "exposition",
            name,
            "metric family exposed without help text; register it with a \
             one-line description — the HELP line is the only documentation \
             an operator's scrape ever sees",
        ));
    }
    parsed.families.len()
}

// ---------------------------------------------------------------------------
// Pass 5: unsafe audit.
// ---------------------------------------------------------------------------

/// The one first-party file allowed to write `unsafe`.
const UNSAFE_HOME: &str = "crates/net/src/poll.rs";

/// First-party source roots, relative to the repo root (the vendor shims
/// mirror external crates and are not first-party).
const FIRST_PARTY: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

fn lint_unsafe(findings: &mut Vec<Finding>) -> usize {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in FIRST_PARTY {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source file");
        let rel = path.strip_prefix(&root).unwrap_or(path).display().to_string();
        audit_unsafe(&rel, &text, findings);
    }
    files.len()
}

fn audit_unsafe(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    for (lineno, code) in code_only(text).lines().enumerate() {
        if !contains_word(code, "unsafe") {
            continue;
        }
        let site = format!("{rel}:{}", lineno + 1);
        if rel != UNSAFE_HOME {
            findings.push(Finding::new(
                "unsafe",
                site,
                format!(
                    "first-party unsafe outside {UNSAFE_HOME}; keep FFI behind that one module"
                ),
            ));
            continue;
        }
        let comment = lines[..lineno].iter().rev().take_while(|l| l.trim_start().starts_with("//"));
        if !comment.into_iter().any(|l| l.trim_start().starts_with("// SAFETY:")) {
            findings.push(Finding::new(
                "unsafe",
                site,
                "unsafe without a `// SAFETY:` comment directly above it stating why it is sound",
            ));
        }
    }
}

/// Whether `word` occurs in `line` delimited by non-identifier characters.
fn contains_word(line: &str, word: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(word).any(|(at, _)| {
        !ident(line[..at].chars().next_back()) && !ident(line[at + word.len()..].chars().next())
    })
}

/// `text` with comments and string / char literals blanked to spaces
/// (newlines kept, so line numbers still match), leaving only code.
fn code_only(text: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    let mut i = 0;
    while i < out.len() {
        let end = (i + skipped_len(text, i)).min(out.len());
        if end == i {
            i += 1;
            continue;
        }
        for c in &mut out[i..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = end;
    }
    String::from_utf8(out).expect("blanked spans start and end on ASCII bytes")
}

/// Length of the comment or string / char literal starting at byte `i` of
/// `text`; 0 where code starts (a lifetime `'a`, a raw identifier `r#x`).
fn skipped_len(text: &str, i: usize) -> usize {
    let b = text.as_bytes();
    let rest = &b[i..];
    let find = |from: usize, pat: &[u8]| {
        rest[from.min(rest.len())..]
            .windows(pat.len())
            .position(|w| w == pat)
            .map_or(rest.len(), |p| from + p + pat.len())
    };
    let ident = |j: usize| b[j].is_ascii_alphanumeric() || b[j] == b'_';
    match rest {
        [b'/', b'/', ..] => find(2, b"\n"),
        [b'/', b'*', ..] => {
            let (mut depth, mut j) = (0, 0);
            while j < rest.len() {
                match &rest[j..] {
                    [b'/', b'*', ..] => depth += 1,
                    [b'*', b'/', ..] => depth -= 1,
                    _ => {
                        j += 1;
                        continue;
                    }
                }
                j += 2;
                if depth == 0 {
                    break;
                }
            }
            j
        }
        [b'"', ..] => {
            let mut j = 1;
            while j < rest.len() && rest[j] != b'"' {
                j += if rest[j] == b'\\' { 2 } else { 1 };
            }
            j + 1
        }
        // `r"…"`, `r#"…"#`, also after `b`.
        [b'r', ..] if i == 0 || !ident(i - 1) || (b[i - 1] == b'b' && (i < 2 || !ident(i - 2))) => {
            let hashes = rest[1..].iter().take_while(|&&c| c == b'#').count();
            if rest.get(1 + hashes) == Some(&b'"') {
                find(2 + hashes, &[b"\"".as_slice(), &rest[1..=hashes]].concat())
            } else {
                0
            }
        }
        [b'\'', b'\\', ..] => find(3, b"'"),
        [b'\'', ..] => {
            let c = text[i + 1..].chars().next().map_or(0, char::len_utf8);
            if rest.get(1 + c) == Some(&b'\'') {
                c + 2
            } else {
                0
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(rel: &str, text: &str) -> Vec<String> {
        let mut findings = Vec::new();
        audit_unsafe(rel, text, &mut findings);
        findings.iter().map(|f| f.site.clone()).collect()
    }

    /// `(site, message)` of every lock-audit finding on `text`.
    fn audit_locks(text: &str, lock_free: bool) -> Vec<(String, String)> {
        let mut findings = Vec::new();
        audit_file("x.rs", text, lock_free, &mut findings);
        findings.into_iter().map(|f| (f.site, f.message)).collect()
    }

    #[test]
    fn lock_audit_passes_leaf_locks_and_temporaries() {
        let text = "fn seal(&self) {
    let seg = {
        let mut g = shard.lock();
        g.segs.remove(&frontier)
    };
    self.alloc.lock().next += 1;
    let mut alloc = self.alloc.lock();
}
";
        assert_eq!(audit_locks(text, false), []);
    }

    #[test]
    fn lock_audit_flags_a_lock_under_a_live_guard() {
        let text = "fn f(&self) {
    let g = self.a.lock();
    let h = self.b.lock();
}
fn g(&self) {
    let h = self.b.lock();
}
fn h(&self) {
    let g = a.lock().unwrap_or_else(PoisonError::into_inner);
    b.lock();
}
";
        let found = audit_locks(text, false);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].0, "x.rs:3");
        assert!(found[0].1.contains("guard from line 2 is live"), "{}", found[0].1);
        // A guard recovered from poison is still a guard.
        assert_eq!(found[1].0, "x.rs:10");
        assert!(found[1].1.contains("guard from line 9 is live"), "{}", found[1].1);
    }

    #[test]
    fn lock_audit_flags_a_lock_in_an_if_let_scrutinee() {
        let text = "fn f(&self) {
    if let Some(seg) = self.shard.lock().segs.remove(&0) {
        drop(seg);
    }
}
";
        let found = audit_locks(text, false);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, "x.rs:2");
        assert!(found[0].1.contains("scrutinee"), "{}", found[0].1);
    }

    #[test]
    fn lock_audit_flags_a_lock_inside_thread_scope_and_in_lock_free_files() {
        let text = "fn f(&self) {
    std::thread::scope(|s| {
        s.spawn(|| self.a.lock().len());
    });
    let n = self.a.lock().len();
}
";
        let found = audit_locks(text, false);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, "x.rs:3");
        assert!(found[0].1.contains("thread::scope"), "{}", found[0].1);
        // The same text in a lock-free file: both locks are findings.
        let sites: Vec<String> = audit_locks(text, true).into_iter().map(|(s, _)| s).collect();
        assert_eq!(sites, ["x.rs:3", "x.rs:5"]);
    }

    #[test]
    fn unsafe_in_comments_strings_and_chars_is_not_code() {
        // Every line hides the keyword in a comment or literal; the last
        // line's code after all of them is still seen.
        let text = r##"// unsafe here
/* nested /* unsafe */ still unsafe */ let a = 1;
let s = "unsafe \" unsafe"; let t = 'u';
let r = r#"unsafe " unsafe"#; let b = br"unsafe";
let c = '\''; fn f<'a>(x: &'a str) -> &'a str { x }
let not_unsafe = unsafe_fn; let d = '"'; let n = unsafe { g() };
"##;
        assert_eq!(audit("crates/kernel/src/x.rs", text), ["crates/kernel/src/x.rs:6"]);
        assert_eq!(code_only(text).lines().count(), text.lines().count());
    }

    #[test]
    fn unsafe_is_confined_to_its_home_and_needs_a_safety_comment() {
        let block = "let n = unsafe { f() };\n";
        assert_eq!(audit("crates/kernel/src/x.rs", block), ["crates/kernel/src/x.rs:1"]);
        assert_eq!(
            audit(UNSAFE_HOME, &format!("let a = 1;\n{block}")),
            [format!("{UNSAFE_HOME}:2")]
        );
        let documented =
            format!("// SAFETY: `f` has no preconditions\n// and keeps no pointer.\n{block}");
        assert!(audit(UNSAFE_HOME, &documented).is_empty());
        // A SAFETY line separated from the block by code does not cover it.
        let detached = format!("// SAFETY: stale\nlet a = 1;\n{block}");
        assert_eq!(audit(UNSAFE_HOME, &detached), [format!("{UNSAFE_HOME}:3")]);
    }
}
