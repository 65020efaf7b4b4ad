#![forbid(unsafe_code)]
//! # dl-analyze
//!
//! Repo-specific determinism lints for the DIMM-Link reproduction.
//!
//! The simulator's headline guarantee — byte-identical sweep artifacts at
//! any thread count — only holds if the simulation core never consults a
//! source of nondeterminism. This crate makes that a *statically checkable*
//! property instead of an emergent one: a lightweight lexer strips comments
//! and string literals from every workspace source file, an AST-lite token
//! scanner tracks which bindings hold hash containers, and a small set of
//! rules is enforced over the result.
//!
//! ## Rules
//!
//! | rule | scope | what it forbids |
//! |------|-------|-----------------|
//! | `hash-iter` | sim crates | iterating a `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for … in &map`, …) — iteration order is randomized per process |
//! | `hash-container` | sim crates, non-test | declaring or importing `HashMap`/`HashSet` at all — `BTreeMap`/`BTreeSet` or a sorted `Vec` is required |
//! | `wall-clock` | everywhere except `crates/bench` | `Instant`, `SystemTime`, `thread_rng`, and other ambient-entropy sources |
//! | `float-time` | sim crates | `f32`/`f64` bindings whose name marks them as event timestamps or credit counters (`at`, `deadline`, `*_ps`, `*credit*`, …) |
//! | `unsafe-code` | everywhere | any `unsafe` token (belt-and-braces on top of `#![forbid(unsafe_code)]`) |
//! | `bare-unwrap` | sim crates, non-test | `.unwrap()` directly on channel/event results (`recv`, `send`, `pop`, `peek_key`, `lock`, `join`, …) in sim hot paths |
//!
//! Simulation crates are `crates/{engine,mem,noc,protocol,core}`;
//! `crates/bench` is the only place allowed to read the wall clock (its
//! sweep harness reports host wall-time telemetry). `vendor/` holds offline
//! stand-ins for third-party crates and is not scanned.
//!
//! ## Allowlist
//!
//! Intentional exceptions are declared next to the code they cover, with a
//! mandatory reason, so every exemption is visible and auditable:
//!
//! ```text
//! // dl-analyze: allow(wall-clock) — host wall-time telemetry, not sim state
//! let started = Instant::now();
//! ```
//!
//! The comment suppresses the named rule on its own line and on the line
//! directly below it. An allow without a reason, or naming an unknown rule,
//! is itself a violation.
//!
//! # Examples
//!
//! ```
//! use dl_analyze::{analyze_source, CrateClass};
//!
//! let src = "fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
//!                m.keys().copied().collect()\n\
//!            }\n";
//! let v = analyze_source("example.rs", CrateClass::Sim, src);
//! assert!(v.iter().any(|v| v.rule == "hash-iter"));
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule the pass knows, with a one-line description.
pub const RULES: &[(&str, &str)] = &[
    (
        "hash-iter",
        "no HashMap/HashSet iteration in simulation crates (iteration order is per-process random)",
    ),
    (
        "hash-container",
        "no HashMap/HashSet in non-test simulation code (BTreeMap/BTreeSet or sorted Vec required)",
    ),
    (
        "wall-clock",
        "no Instant/SystemTime/thread_rng outside crates/bench (sim state must not see host time or entropy)",
    ),
    (
        "float-time",
        "no f32/f64 event timestamps or credit counters (Ps and integer credits are exact)",
    ),
    ("unsafe-code", "no unsafe anywhere in the workspace"),
    (
        "bare-unwrap",
        "no bare .unwrap() on channel/event results in sim hot paths (use expect with an invariant)",
    ),
];

/// Idents that read the host clock or ambient entropy.
const WALL_CLOCK_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "UNIX_EPOCH",
    "thread_rng",
    "OsRng",
    "from_entropy",
    "getrandom",
];

/// Hash-container methods whose visit order is nondeterministic.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extend",
];

/// Receiver methods returning channel/event results that must not be
/// bare-unwrapped in sim hot paths.
const CHANNEL_METHODS: &[&str] = &[
    "recv",
    "try_recv",
    "recv_timeout",
    "send",
    "try_send",
    "pop",
    "pop_front",
    "peek",
    "peek_key",
    "lock",
    "try_lock",
    "join",
];

/// One finding of the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (one of [`RULES`], or the allow meta-rules
    /// `allow-missing-reason` / `allow-unknown-rule`).
    pub rule: &'static str,
    /// File the violation is in (as given to the analyzer).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `// dl-analyze: allow(<rule>) — <reason>` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule being exempted.
    pub rule: String,
    /// Mandatory justification (empty = violation).
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// How a file is classified for rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// `crates/{engine,mem,noc,protocol,core}` — the deterministic
    /// simulation core; all rules apply.
    Sim,
    /// `crates/bench` — the experiment harness; may read the wall clock for
    /// telemetry.
    Bench,
    /// Everything else in the workspace (cli, placement, workloads, facade,
    /// integration tests, examples, this crate).
    Other,
}

/// Classifies `path` (relative to the workspace root). `None` means the
/// file is out of scope (vendored stand-ins, build artifacts, VCS metadata).
pub fn classify(path: &Path) -> Option<CrateClass> {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    let first = comps.next()?;
    match first.as_ref() {
        "vendor" | "target" | ".git" => None,
        "crates" => {
            let krate = comps.next()?;
            Some(match krate.as_ref() {
                "engine" | "mem" | "noc" | "protocol" | "core" => CrateClass::Sim,
                "bench" => CrateClass::Bench,
                _ => CrateClass::Other,
            })
        }
        _ => Some(CrateClass::Other),
    }
}

// ---------------------------------------------------------------------
// Lexer: strip comments and string literals, harvesting allow comments
// ---------------------------------------------------------------------

struct Stripped {
    /// Source with every comment and string-literal byte replaced by a
    /// space (newlines preserved, so line numbers survive).
    text: String,
    /// Parsed allowlist entries.
    allows: Vec<Allow>,
    /// Comments that mention `dl-analyze` but do not parse as an allow.
    malformed: Vec<(u32, String)>,
}

/// Strips `//` and nested `/* */` comments, `"…"` strings, `r#"…"#` raw
/// strings, and char literals, distinguishing `'a'` from lifetime `'a`.
fn strip(src: &str) -> Stripped {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;

    let mut finish_comment = |text: &str, at: u32| {
        // Doc comments (`///`, `//!`, `/**`, `/*!`) describe the allow
        // syntax rather than invoking it — never parse them as directives.
        let is_doc = text.starts_with("///")
            || text.starts_with("//!")
            || (text.starts_with("/**") && !text.starts_with("/**/"))
            || text.starts_with("/*!");
        if is_doc {
            return;
        }
        match parse_allow(text, at) {
            Some(Ok(a)) => allows.push(a),
            Some(Err(msg)) => malformed.push((at, msg)),
            None => {}
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                out.push(b'\n');
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start_line = line;
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
                finish_comment(&src[start..i], start_line);
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start_line = line;
                let start = i;
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] == b'\n' {
                            out.push(b'\n');
                            line += 1;
                        } else {
                            out.push(b' ');
                        }
                        i += 1;
                    }
                }
                finish_comment(&src[start..i], start_line);
            }
            b'r' if i + 1 < bytes.len() && (bytes[i + 1] == b'"' || bytes[i + 1] == b'#') => {
                // Possible raw string r"…" / r#"…"#.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b'"' {
                    // Blank the `r`, the hashes, and the opening quote.
                    out.resize(out.len() + hashes + 2, b' ');
                    i = j + 1;
                    // Scan to closing quote followed by `hashes` hashes.
                    'raw: while i < bytes.len() {
                        if bytes[i] == b'"' {
                            let mut k = i + 1;
                            let mut h = 0;
                            while k < bytes.len() && bytes[k] == b'#' && h < hashes {
                                h += 1;
                                k += 1;
                            }
                            if h == hashes {
                                out.resize(out.len() + (k - i), b' ');
                                i = k;
                                break 'raw;
                            }
                        }
                        if bytes[i] == b'\n' {
                            out.push(b'\n');
                            line += 1;
                        } else {
                            out.push(b' ');
                        }
                        i += 1;
                    }
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                        continue;
                    }
                    if bytes[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        out.push(b'\n');
                        line += 1;
                    } else {
                        out.push(b' ');
                    }
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime. A char literal is '<one char>'
                // or '\<escape>'; a lifetime is '<ident> not followed by '.
                let is_char = if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                    true
                } else {
                    // Find the next ' within a few bytes (chars are short);
                    // lifetimes never have a closing quote.
                    bytes[i + 1..]
                        .iter()
                        .take(5)
                        .position(|&c| c == b'\'')
                        .is_some()
                };
                if is_char {
                    out.push(b' ');
                    i += 1;
                    if i < bytes.len() && bytes[i] == b'\\' {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    }
                    while i < bytes.len() && bytes[i] != b'\'' {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    if i < bytes.len() {
                        out.push(b' ');
                        i += 1;
                    }
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    Stripped {
        text: String::from_utf8(out).expect("stripping preserves UTF-8 by replacing whole bytes"),
        allows,
        malformed,
    }
}

/// Parses a comment body as an allow directive. Returns `None` when the
/// comment does not mention `dl-analyze`, `Some(Err)` when it does but is
/// malformed.
fn parse_allow(comment: &str, line: u32) -> Option<Result<Allow, String>> {
    let idx = comment.find("dl-analyze")?;
    let rest = comment[idx..].strip_prefix("dl-analyze")?;
    let rest = rest.trim_start_matches([':', ' ']);
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Err(
            "dl-analyze comment without allow(<rule>) directive".into()
        ));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed allow( in dl-analyze comment".into()));
    };
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '\u{2014}', '-', ':', '\u{2013}'])
        .trim()
        .to_string();
    Some(Ok(Allow { rule, reason, line }))
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Tok {
    text: String,
    line: u32,
}

impl Tok {
    fn is_ident(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    }
}

/// Splits stripped source into identifier and single-character punctuation
/// tokens. Numbers are folded into idents when they begin one (`f64`),
/// standalone numeric literals become number tokens (never matched by
/// rules).
fn tokenize(text: &str) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut cur = String::new();
    let mut cur_line = line;
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            if cur.is_empty() {
                cur_line = line;
            }
            cur.push(c);
        } else {
            if !cur.is_empty() {
                toks.push(Tok {
                    text: std::mem::take(&mut cur),
                    line: cur_line,
                });
            }
            if c == '\n' {
                line += 1;
            } else if !c.is_whitespace() {
                toks.push(Tok {
                    text: c.to_string(),
                    line,
                });
            }
        }
    }
    if !cur.is_empty() {
        toks.push(Tok {
            text: cur,
            line: cur_line,
        });
    }
    toks
}

/// Marks tokens inside `#[cfg(test)] mod … { … }` blocks.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        // Match `#` `[` `cfg` `(` … test … `)` `]`.
        if toks[i].text == "#"
            && i + 3 < toks.len()
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
        {
            let mut j = i + 4;
            let mut depth = 1;
            let mut has_test = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "test" => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            // Skip the closing `]` and any further attributes.
            while j < toks.len() && toks[j].text == "]" {
                j += 1;
                while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
                    let mut d = 0;
                    j += 1;
                    loop {
                        match toks[j].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        j += 1;
                        if d == 0 || j >= toks.len() {
                            break;
                        }
                    }
                }
            }
            if has_test && j < toks.len() {
                // Mark the item that follows: brace-delimited if any.
                let item_start = j;
                let mut k = j;
                while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                    k += 1;
                }
                if k < toks.len() && toks[k].text == "{" {
                    let mut d = 0;
                    let mut end = k;
                    while end < toks.len() {
                        match toks[end].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        end += 1;
                        if d == 0 {
                            break;
                        }
                    }
                    for m in mask.iter_mut().take(end).skip(item_start) {
                        *m = true;
                    }
                    i = end;
                    continue;
                } else {
                    for m in mask.iter_mut().take(k + 1).skip(item_start) {
                        *m = true;
                    }
                    i = k + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------
// Rule scans
// ---------------------------------------------------------------------

/// Collects identifiers bound to hash-container types: struct fields and
/// let-bindings declared as `name: HashMap<…>` or `name = HashMap::new()`
/// (with or without a `std::collections::` path).
fn hash_bindings(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        // Walk back over a `std::collections::` (or any) path prefix.
        let mut j = i;
        while j >= 2 && toks[j - 1].text == ":" && toks[j - 2].text == ":" {
            if j >= 3 && toks[j - 3].is_ident() {
                j -= 3;
            } else {
                break;
            }
        }
        // ...and over reference/mutability/lifetime sigils (`&'a mut`).
        loop {
            if j >= 1 && matches!(toks[j - 1].text.as_str(), "&" | "mut") {
                j -= 1;
            } else if j >= 2 && toks[j - 2].text == "'" && toks[j - 1].is_ident() {
                j -= 2;
            } else {
                break;
            }
        }
        if j == 0 {
            continue;
        }
        match toks[j - 1].text.as_str() {
            // `name : HashMap<…>` — field, param, or annotated let. The
            // path case `::HashMap` is excluded above, so a single colon
            // remains: the token before it must be the bound identifier.
            ":" if j >= 2 && toks[j - 2].text != ":" && toks[j - 2].is_ident() => {
                names.insert(toks[j - 2].text.clone());
            }
            // `name = HashMap::new()` / `= HashSet::from(…)`.
            "=" if j >= 2 && toks[j - 2].is_ident() && toks[j - 2].text != "=" => {
                names.insert(toks[j - 2].text.clone());
            }
            _ => {}
        }
    }
    names
}

fn is_time_or_credit_name(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    matches!(l.as_str(), "at" | "now" | "ts" | "deadline")
        || l.contains("time")
        || l.contains("timestamp")
        || l.contains("credit")
        || l.contains("deadline")
        || l.ends_with("_ps")
        || l.ends_with("_ns")
        || l.ends_with("_us")
        || l.ends_with("_at")
        || l.ends_with("_ts")
}

/// Runs every applicable rule over one file's source.
///
/// `file` is used only for reporting; `class` decides which rules apply
/// (see [`CrateClass`]). Allow comments in `src` suppress matching
/// violations on their own line and the line directly below.
pub fn analyze_source(file: &str, class: CrateClass, src: &str) -> Vec<Violation> {
    let stripped = strip(src);
    let toks = tokenize(&stripped.text);
    let in_test = test_mask(&toks);
    let is_test_file = file.contains("/tests/") || file.contains("/benches/");
    let mut raw: Vec<Violation> = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        raw.push(Violation {
            rule,
            file: file.to_string(),
            line,
            message,
        });
    };

    let tracked = hash_bindings(&toks);
    for (i, t) in toks.iter().enumerate() {
        let test_code = is_test_file || in_test[i];

        // unsafe-code: everywhere.
        if t.text == "unsafe" {
            push("unsafe-code", t.line, "`unsafe` is forbidden".into());
        }

        // wall-clock: everywhere except bench.
        if class != CrateClass::Bench && WALL_CLOCK_IDENTS.contains(&t.text.as_str()) {
            push(
                "wall-clock",
                t.line,
                format!("`{}` reads host time/entropy outside crates/bench", t.text),
            );
        }

        if class != CrateClass::Sim {
            continue;
        }

        // hash-container: sim crates, non-test code.
        if (t.text == "HashMap" || t.text == "HashSet") && !test_code {
            push(
                "hash-container",
                t.line,
                format!(
                    "`{}` in simulation code; use BTreeMap/BTreeSet or a sorted Vec",
                    t.text
                ),
            );
        }

        // hash-iter: sim crates, including test code.
        if tracked.contains(&t.text) {
            // `name.iter()`-style calls.
            if i + 2 < toks.len()
                && toks[i + 1].text == "."
                && HASH_ITER_METHODS.contains(&toks[i + 2].text.as_str())
                && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(")
            {
                push(
                    "hash-iter",
                    toks[i + 2].line,
                    format!(
                        "iterating hash container `{}` via `.{}()` — order is nondeterministic",
                        t.text,
                        toks[i + 2].text
                    ),
                );
            }
            // `for x in &name {` / `for x in name {`.
            let mut j = i;
            while j > 0 && matches!(toks[j - 1].text.as_str(), "&" | "mut" | "." | "self") {
                j -= 1;
            }
            if j > 0
                && toks[j - 1].text == "in"
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("{")
            {
                push(
                    "hash-iter",
                    t.line,
                    format!(
                        "for-loop over hash container `{}` — order is nondeterministic",
                        t.text
                    ),
                );
            }
        }

        // float-time: sim crates. Pattern `name : f32|f64`.
        if (t.text == "f32" || t.text == "f64")
            && i >= 2
            && toks[i - 1].text == ":"
            && toks[i - 2].text != ":"
            && toks[i - 2].is_ident()
            && is_time_or_credit_name(&toks[i - 2].text)
        {
            push(
                "float-time",
                t.line,
                format!(
                    "`{}: {}` — timestamps and credits must be Ps/integers",
                    toks[i - 2].text,
                    t.text
                ),
            );
        }

        // bare-unwrap: sim crates, non-test. Pattern
        // `.method(…).unwrap(`.
        if !test_code
            && t.text == "."
            && i + 2 < toks.len()
            && CHANNEL_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].text == "("
        {
            // Skip the balanced argument list.
            let mut depth = 0usize;
            let mut k = i + 2;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                k += 1;
                if depth == 0 {
                    break;
                }
            }
            if k + 2 < toks.len()
                && toks[k].text == "."
                && toks[k + 1].text == "unwrap"
                && toks[k + 2].text == "("
            {
                push(
                    "bare-unwrap",
                    toks[k + 1].line,
                    format!(
                        "bare `.unwrap()` on `.{}()` result in a sim hot path; use expect",
                        toks[i + 1].text
                    ),
                );
            }
        }
    }

    // Apply the allowlist: an allow suppresses its rule on the comment's
    // line and the line directly below it.
    let known: BTreeSet<&str> = RULES.iter().map(|&(r, _)| r).collect();
    let mut out: Vec<Violation> = Vec::new();
    for v in raw {
        let allowed = stripped
            .allows
            .iter()
            .any(|a| a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line));
        if !allowed {
            out.push(v);
        }
    }
    for a in &stripped.allows {
        if !known.contains(a.rule.as_str()) {
            out.push(Violation {
                rule: "allow-unknown-rule",
                file: file.to_string(),
                line: a.line,
                message: format!("allow names unknown rule `{}`", a.rule),
            });
        }
        if a.reason.is_empty() {
            out.push(Violation {
                rule: "allow-missing-reason",
                file: file.to_string(),
                line: a.line,
                message: format!("allow({}) without a reason — justify the exception", a.rule),
            });
        }
    }
    for (line, msg) in &stripped.malformed {
        out.push(Violation {
            rule: "allow-missing-reason",
            file: file.to_string(),
            line: *line,
            message: msg.clone(),
        });
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Extracts the allowlist entries of one file (for the audit inventory).
pub fn allows_of(src: &str) -> Vec<Allow> {
    strip(src).allows
}

// ---------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------

/// The result of scanning a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, in deterministic (path, line) order.
    pub violations: Vec<Violation>,
    /// Every allowlist entry, as `(file, allow)` in path order.
    pub allows: Vec<(String, Allow)>,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

/// Recursively collects `.rs` files under `root` in sorted (deterministic)
/// order, skipping out-of-scope directories.
fn rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().map(|n| n.to_string_lossy().to_string());
            let name = name.as_deref().unwrap_or("");
            if p.is_dir() {
                if !matches!(name, "target" | "vendor" | ".git" | ".github") {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans every in-scope `.rs` file under `root` and returns the combined
/// report.
///
/// # Errors
/// Returns an error if the directory walk or a file read fails.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in rs_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let Some(class) = classify(&rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&path)?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        report.files += 1;
        report
            .violations
            .extend(analyze_source(&rel_str, class, &src));
        for a in allows_of(&src) {
            report.allows.push((rel_str.clone(), a));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(src: &str) -> Vec<Violation> {
        analyze_source("crates/core/src/x.rs", CrateClass::Sim, src)
    }

    #[test]
    fn flags_hash_iteration_methods() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) { for k in s.m.keys() {} }\n";
        let v = sim(src);
        assert!(
            v.iter().any(|v| v.rule == "hash-iter" && v.line == 2),
            "{v:?}"
        );
    }

    #[test]
    fn flags_iteration_of_reference_typed_params() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                   m.keys().copied().collect()\n\
                   }\n\
                   fn g(s: &mut HashSet<u32>) { s.retain(|x| *x > 0); }\n";
        let v = sim(src);
        assert!(
            v.iter().any(|v| v.rule == "hash-iter" && v.line == 2),
            "{v:?}"
        );
        assert!(
            v.iter().any(|v| v.rule == "hash-iter" && v.line == 4),
            "{v:?}"
        );
    }

    #[test]
    fn flags_for_loop_over_hash_map() {
        let src = "fn f() { let mut m = std::collections::HashMap::new();\n\
                   m.insert(1, 2);\n\
                   for kv in &m {} }\n";
        let v = sim(src);
        assert!(
            v.iter().any(|v| v.rule == "hash-iter" && v.line == 3),
            "{v:?}"
        );
    }

    #[test]
    fn flags_hash_container_outside_tests_only() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { let s = std::collections::HashSet::from([1]); assert!(s.contains(&1)); }\n\
                   }\n";
        let v = sim(src);
        assert_eq!(
            v.iter().filter(|v| v.rule == "hash-container").count(),
            1,
            "only the non-test import is flagged: {v:?}"
        );
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn btreemap_is_fine() {
        let src = "use std::collections::BTreeMap;\n\
                   fn f(m: &BTreeMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n";
        assert!(sim(src).is_empty());
    }

    #[test]
    fn flags_wall_clock_outside_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let v = analyze_source("crates/cli/src/x.rs", CrateClass::Other, src);
        assert!(v.iter().any(|v| v.rule == "wall-clock"));
        let b = analyze_source("crates/bench/src/x.rs", CrateClass::Bench, src);
        assert!(b.iter().all(|v| v.rule != "wall-clock"));
    }

    #[test]
    fn flags_float_time_fields() {
        let src = "struct Ev { at: f64, payload: u32 }\n\
                   struct Link { credits: f32 }\n\
                   struct Stats { mean_latency: f64 }\n";
        let v = sim(src);
        assert!(v.iter().any(|v| v.rule == "float-time" && v.line == 1));
        assert!(v.iter().any(|v| v.rule == "float-time" && v.line == 2));
        // `mean_latency` is a measurement, not a timestamp name ... it
        // contains neither a unit suffix nor a time keyword? It contains
        // none of the matched markers, so it is not flagged.
        assert!(v.iter().all(|v| v.line != 3), "{v:?}");
    }

    #[test]
    fn flags_unsafe_everywhere() {
        let src =
            "fn f() { let p = 0u64; let _ = unsafe { std::mem::transmute::<u64, i64>(p) }; }\n";
        let v = analyze_source("src/lib.rs", CrateClass::Other, src);
        assert!(v.iter().any(|v| v.rule == "unsafe-code"));
    }

    #[test]
    fn flags_bare_unwrap_on_channel_results() {
        let src = "fn f(rx: &std::sync::mpsc::Receiver<u32>) { let v = rx.recv().unwrap(); }\n";
        let v = sim(src);
        assert!(v.iter().any(|v| v.rule == "bare-unwrap"));
        // expect() is the sanctioned spelling.
        let ok =
            "fn f(rx: &std::sync::mpsc::Receiver<u32>) { let v = rx.recv().expect(\"alive\"); }\n";
        assert!(sim(ok).iter().all(|v| v.rule != "bare-unwrap"));
    }

    #[test]
    fn unwrap_in_test_module_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { q.pop().unwrap(); }\n}\n";
        assert!(sim(src).iter().all(|v| v.rule != "bare-unwrap"));
    }

    #[test]
    fn allow_comment_suppresses_next_line() {
        let src = "// dl-analyze: allow(hash-container) — ephemeral scratch map, never iterated\n\
                   fn f() { let m: std::collections::HashMap<u32, u32> = Default::default(); }\n";
        let v = sim(src);
        assert!(v.iter().all(|v| v.rule != "hash-container"), "{v:?}");
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "// dl-analyze: allow(hash-container)\n\
                   fn f() { let m: std::collections::HashMap<u32, u32> = Default::default(); }\n";
        let v = sim(src);
        assert!(v.iter().any(|v| v.rule == "allow-missing-reason"));
        // The suppression itself still applies (the entry is just invalid).
        assert!(v.iter().all(|v| v.rule != "hash-container"));
    }

    #[test]
    fn allow_with_unknown_rule_is_a_violation() {
        let src = "// dl-analyze: allow(no-such-rule) — because\nfn f() {}\n";
        let v = sim(src);
        assert!(v.iter().any(|v| v.rule == "allow-unknown-rule"));
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = "// HashMap iteration: for k in map.keys() {}\n\
                   /* unsafe Instant::now() */\n\
                   fn f() -> &'static str { \"thread_rng SystemTime unsafe\" }\n\
                   fn g() -> String { r#\"Instant::now() HashMap\"#.to_string() }\n";
        assert!(sim(src).is_empty(), "{:?}", sim(src));
    }

    #[test]
    fn lifetimes_do_not_confuse_the_lexer() {
        let src = "struct W<'w> { r: &'w str }\n\
                   fn f<'a>(x: &'a char) -> char { let c = 'x'; let n = '\\n'; *x }\n\
                   fn g() { let t = std::time::Instant::now(); }\n";
        let v = sim(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wall-clock");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn classify_scopes_rules_by_crate() {
        use std::path::Path;
        assert_eq!(
            classify(Path::new("crates/engine/src/event.rs")),
            Some(CrateClass::Sim)
        );
        assert_eq!(
            classify(Path::new("crates/bench/src/sweep.rs")),
            Some(CrateClass::Bench)
        );
        assert_eq!(
            classify(Path::new("crates/cli/src/main.rs")),
            Some(CrateClass::Other)
        );
        assert_eq!(
            classify(Path::new("tests/end_to_end.rs")),
            Some(CrateClass::Other)
        );
        assert_eq!(classify(Path::new("vendor/rand/src/lib.rs")), None);
        assert_eq!(classify(Path::new("target/debug/build.rs")), None);
    }

    #[test]
    fn tests_dir_files_are_test_code() {
        let src = "fn t(q: &mut Q) { q.pop().unwrap(); }\n";
        let v = analyze_source("crates/core/tests/det.rs", CrateClass::Sim, src);
        assert!(v.iter().all(|v| v.rule != "bare-unwrap"));
    }

    #[test]
    fn workspace_scan_is_clean() {
        // The pass must run clean on its own workspace: zero violations,
        // and every allowlist entry carries a reason. This is the same
        // check CI's `analyze` job runs via the binary.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = analyze_workspace(&root).expect("workspace scan");
        assert!(report.files > 50, "scanned only {} files", report.files);
        assert!(
            report.violations.is_empty(),
            "violations:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        for (file, a) in &report.allows {
            assert!(
                !a.reason.is_empty(),
                "{file}:{} allow without reason",
                a.line
            );
        }
    }
}
