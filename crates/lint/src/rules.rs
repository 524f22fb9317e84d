//! The three rule families: determinism, panic-freedom, unit-safety.
//!
//! Each pass walks the (test-stripped) token stream of one file and emits
//! [`Violation`]s. The passes are deliberately syntactic — they trade a
//! little precision for zero dependencies and total predictability, and the
//! allowlist (`lint.allow.toml`) absorbs the handful of justified cases.

use crate::lexer::Token;
use std::fmt;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Stable rule identifier, e.g. `panic.unwrap`.
    pub rule: &'static str,
    /// Human-readable explanation.
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

/// Which rule families apply to a given file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// `det.*`: wall-clock, RNG, hash-iteration and unordered reductions.
    pub determinism: bool,
    /// `panic.*`: unwrap/expect/panicking macros/direct indexing.
    pub panic_freedom: bool,
    /// `units.raw-f64`: raw `f64` in public signatures where a
    /// `bsa-units` newtype exists.
    pub unit_safety: bool,
}

impl RuleSet {
    /// No rules — the file is out of scope.
    pub const NONE: Self = Self {
        determinism: false,
        panic_freedom: false,
        unit_safety: false,
    };

    /// `true` if at least one family applies.
    pub fn any(&self) -> bool {
        self.determinism || self.panic_freedom || self.unit_safety
    }
}

/// All stable rule identifiers, for `--help` and the allowlist validator.
pub const RULE_IDS: &[&str] = &[
    "det.time",
    "det.rng",
    "det.hash-collection",
    "det.unordered-reduce",
    "panic.unwrap",
    "panic.expect",
    "panic.macro",
    "panic.indexing",
    "units.raw-f64",
    "reach.panic",
    "proto.exhaustive",
    "proto.error-reply",
    "conc.atomic-rmw",
    "conc.ordering",
    "conc.hold-and-block",
    "flow.unit",
    "flow.range",
    "conc.lock-order",
    "proto.abi",
    "flow.summary",
    "taint.wire-alloc",
    "taint.wire-index",
    "taint.wire-arith",
];

/// One-line description per rule id, for `rules` output.
pub fn rule_description(id: &str) -> &'static str {
    match id {
        "det.time" => "wall-clock reads (Instant/SystemTime) in deterministic paths",
        "det.rng" => "unseeded RNG (thread_rng/rand::random) in deterministic paths",
        "det.hash-collection" => "HashMap/HashSet iteration-order nondeterminism",
        "det.unordered-reduce" => "parallel float reduction in thread-dependent order",
        "panic.unwrap" => ".unwrap() in non-test library code",
        "panic.expect" => ".expect() in non-test library code",
        "panic.macro" => "panic!/unreachable!/todo!/unimplemented! in library code",
        "panic.indexing" => "direct slice indexing that can panic",
        "units.raw-f64" => "raw f64 where a bsa-units newtype exists",
        "reach.panic" => "panic reachable through the call graph from a pub API fn",
        "proto.exhaustive" => {
            "Message/ProtocolError variant missing encode/decode/handler coverage"
        }
        "proto.error-reply" => "typed reply code never constructed by the station",
        "conc.atomic-rmw" => "non-atomic read-modify-write on an atomic counter",
        "conc.ordering" => "inconsistent memory Ordering across uses of one atomic",
        "conc.hold-and-block" => "blocking call while holding a lock",
        "flow.unit" => "dimension-mixing assignment or sum found by unit dataflow",
        "flow.range" => "interval analysis proves an index/divisor can panic",
        "conc.lock-order" => "lock/channel acquisition-order cycle (potential deadlock)",
        "proto.abi" => "wire encoding drifted from the committed link.abi.lock",
        "flow.summary" => "function-summary contract proves a cross-function index panics",
        "taint.wire-alloc" => "wire-derived count reaches an allocation or loop bound unvalidated",
        "taint.wire-index" => "wire-derived value used as a slice index unvalidated",
        "taint.wire-arith" => "overflowable arithmetic on wire-derived operands feeds a sink",
        _ => "unknown rule",
    }
}

/// Runs every enabled rule family over a test-stripped token stream.
pub fn run_rules(file: &str, tokens: &[Token], rules: RuleSet) -> Vec<Violation> {
    let mut out = Vec::new();
    if rules.determinism {
        determinism_pass(file, tokens, &mut out);
    }
    if rules.panic_freedom {
        panic_pass(file, tokens, &mut out);
    }
    if rules.unit_safety {
        unit_pass(file, tokens, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

pub(crate) fn violation(
    file: &str,
    line: usize,
    rule: &'static str,
    message: impl Into<String>,
) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Family 1: determinism
// ---------------------------------------------------------------------------

/// Reduction adapters that are order-sensitive over floats: following one of
/// the parallel-iterator adapters below with these makes the result depend
/// on the runtime split, breaking bit-identical-across-thread-counts replay.
const UNORDERED_REDUCERS: &[&str] = &["sum", "reduce", "fold_with", "product"];

/// Parallel-iterator adapters (rayon's names) that fan a computation out
/// across threads.
const PAR_ADAPTERS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_exact",
    "par_bridge",
];

fn determinism_pass(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        match name {
            "Instant" | "SystemTime" => {
                // `Instant::now()` / any SystemTime use: wall-clock reads
                // make scan output depend on scheduling.
                out.push(violation(
                    file,
                    t.line,
                    "det.time",
                    format!("`{name}` in a deterministic path (wall-clock dependence)"),
                ));
            }
            "thread_rng" | "ThreadRng" if is_method_or_path_call(tokens, i) => {
                out.push(violation(
                    file,
                    t.line,
                    "det.rng",
                    format!("`{name}` in a deterministic path (unseeded RNG); use a seeded StdRng"),
                ));
            }
            // `rand::random` free function (a method `rng.random()` on a
            // seeded generator is deterministic and fine).
            "random"
                if i >= 1
                    && tokens[i - 1].is_punct(':')
                    && matches!(tokens.get(i + 1), Some(t) if t.is_punct('(')) =>
            {
                out.push(violation(
                    file,
                    t.line,
                    "det.rng",
                    "`rand::random` in a deterministic path (unseeded RNG); use a seeded StdRng",
                ));
            }
            "HashMap" | "HashSet" => {
                out.push(violation(
                    file,
                    t.line,
                    "det.hash-collection",
                    format!(
                        "`{name}` in a deterministic path (iteration order varies per process); \
                         use BTreeMap/BTreeSet or a Vec"
                    ),
                ));
            }
            _ if PAR_ADAPTERS.contains(&name) => {
                // Look ahead within the same statement for an
                // order-sensitive reduction.
                if let Some((j, red)) = find_reducer_in_statement(tokens, i) {
                    out.push(violation(
                        file,
                        tokens[j].line,
                        "det.unordered-reduce",
                        format!(
                            "`{name}()…{red}()` reduces floats in a thread-dependent order; \
                             reduce per-chunk then combine sequentially"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// `true` if the identifier at `i` is used as a call or path segment
/// (`thread_rng()`, `rand::thread_rng`, `rng.random()`), not a mere
/// variable named e.g. `random`.
fn is_method_or_path_call(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i + 1), Some(t) if t.is_punct('('))
        || matches!(tokens.get(i + 1), Some(t) if t.is_punct(':'))
}

/// Scans forward from a parallel adapter to the end of the statement,
/// returning the first order-sensitive reducer called *on the chain
/// itself* (paren depth 0). A reducer nested inside a `.map(|chunk| …)`
/// argument runs per-item/per-chunk and stays deterministic — that is
/// exactly the recommended rewrite, so it must not be flagged.
fn find_reducer_in_statement(tokens: &[Token], start: usize) -> Option<(usize, &'static str)> {
    let mut j = start + 1;
    let mut brace_depth = 0usize;
    let mut paren_depth = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('{') {
            brace_depth += 1;
        } else if t.is_punct('}') {
            if brace_depth == 0 {
                return None;
            }
            brace_depth -= 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            paren_depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren_depth = paren_depth.saturating_sub(1);
        } else if t.is_punct(';') && brace_depth == 0 && paren_depth == 0 {
            return None;
        } else if brace_depth == 0 && paren_depth == 0 {
            if let Some(name) = t.ident() {
                if let Some(red) = UNORDERED_REDUCERS.iter().find(|r| **r == name) {
                    // Must be a method call: `.sum(` / `.reduce(`.
                    let dotted = j >= 1 && tokens[j - 1].is_punct('.');
                    let called =
                        matches!(tokens.get(j + 1), Some(t) if t.is_punct('(') || t.is_punct(':'));
                    if dotted && called {
                        return Some((j, red));
                    }
                }
            }
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Family 2: panic-freedom
// ---------------------------------------------------------------------------

/// Keywords that, before `[`, mean the bracket is not an index expression
/// (array literals, slice types, generics positions, attribute openers).
const NON_INDEX_PREFIX_KEYWORDS: &[&str] = &[
    "let", "mut", "in", "if", "else", "match", "return", "as", "fn", "impl", "for", "while",
    "loop", "move", "ref", "pub", "use", "where", "break", "continue", "const", "static", "type",
    "struct", "enum", "trait", "unsafe", "dyn", "box", "await", "yield",
];

/// Panicking macros we flag. Plain `assert*!` are *not* flagged: they state
/// an invariant the caller already violated and are the idiomatic guard —
/// the rule targets implicit panics, not explicit contracts.
const FLAGGED_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub(crate) fn panic_pass(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        // `.unwrap()` / `.expect(` at method position.
        if let Some(name) = t.ident() {
            let dotted = i >= 1 && tokens[i - 1].is_punct('.');
            let called = matches!(tokens.get(i + 1), Some(t) if t.is_punct('('));
            if dotted && called && name == "unwrap" {
                out.push(violation(
                    file,
                    t.line,
                    "panic.unwrap",
                    "`.unwrap()` in non-test library code; return a typed error or use a total method",
                ));
            } else if dotted && called && name == "expect" {
                out.push(violation(
                    file,
                    t.line,
                    "panic.expect",
                    "`.expect()` in non-test library code; return a typed error or allowlist with justification",
                ));
            } else if matches!(tokens.get(i + 1), Some(t) if t.is_punct('!'))
                && FLAGGED_MACROS.contains(&name)
            {
                out.push(violation(
                    file,
                    t.line,
                    "panic.macro",
                    format!("`{name}!` in non-test library code; return a typed error instead"),
                ));
            }
        }

        // Direct slice/array indexing: `expr[...]` where expr ends in an
        // identifier, `]` or `)`. `[..]` (full range) cannot panic and is
        // exempt; everything else (including partial ranges) can.
        if index_site(tokens, i) {
            out.push(violation(
                file,
                t.line,
                "panic.indexing",
                "direct slice indexing can panic; use get()/get_mut() or iterate, \
                 or allowlist with a bounds justification",
            ));
        }
    }
}

/// `true` when token `i` is a `[` opening a direct index expression that
/// `panic.indexing` flags. Shared with the `flow.range` prover so interval
/// proofs discharge exactly the sites the syntactic rule reports.
pub(crate) fn index_site(tokens: &[Token], i: usize) -> bool {
    let Some(t) = tokens.get(i) else { return false };
    if !t.is_punct('[') || i == 0 {
        return false;
    }
    let prev = &tokens[i - 1];
    let indexes_expr = match prev.ident() {
        Some(name) => !NON_INDEX_PREFIX_KEYWORDS.contains(&name),
        None => prev.is_punct(']') || prev.is_punct(')'),
    };
    let full_range = tokens.get(i + 1).map(|t| t.is_punct('.')) == Some(true)
        && tokens.get(i + 2).map(|t| t.is_punct('.')) == Some(true)
        && tokens.get(i + 3).map(|t| t.is_punct(']')) == Some(true);
    indexes_expr && !full_range
}

// ---------------------------------------------------------------------------
// Family 3: unit-safety
// ---------------------------------------------------------------------------

/// Maps a parameter name to the `bsa-units` newtype it should use, if the
/// name suggests a dimensioned quantity.
pub fn suggested_unit_type(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    let l = lower.as_str();
    // Frequencies: sampling rates, corner frequencies, band edges.
    if matches!(l, "fs" | "fc" | "f0" | "f_lo" | "f_hi" | "f_low" | "f_high")
        || l.contains("freq")
        || l.ends_with("_hz")
    {
        return Some("Hertz");
    }
    if l.contains("volt") || l.ends_with("_v") || l == "vdd" || l == "vref" {
        return Some("Volt");
    }
    if l.contains("current") || l.ends_with("_amp") || l.ends_with("_amps") || l.ends_with("_a") {
        return Some("Ampere");
    }
    if l == "dt"
        || l.ends_with("_s")
        || l.ends_with("_sec")
        || l.ends_with("_seconds")
        || l.contains("duration")
        || l.contains("period")
        || l == "time"
        || l.ends_with("_time")
    {
        return Some("Seconds");
    }
    None
}

fn unit_pass(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("pub") {
            if let Some((name_idx, params_start)) = public_fn_params(tokens, i) {
                check_fn_params(file, tokens, name_idx, params_start, out);
            }
        }
        i += 1;
    }
}

/// If `tokens[i]` starts `pub … fn name …(`, returns the indices of the
/// function-name token and of the opening `(` of its parameter list.
fn public_fn_params(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    // Visibility qualifier `pub(crate)` / `pub(in …)`.
    if tokens.get(j)?.is_punct('(') {
        let mut depth = 1usize;
        j += 1;
        while depth > 0 {
            let t = tokens.get(j)?;
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
    }
    // Optional qualifiers before `fn`.
    while matches!(
        tokens.get(j)?.ident(),
        Some("const" | "unsafe" | "async" | "extern")
    ) {
        j += 1;
        // `extern "C"` carries a literal.
        if matches!(tokens.get(j)?.kind, crate::lexer::TokenKind::Literal(_)) {
            j += 1;
        }
    }
    if !tokens.get(j)?.is_ident("fn") {
        return None;
    }
    j += 1;
    let name_idx = j;
    tokens.get(j)?.ident()?;
    j += 1;
    // Generic parameter list `<…>` (angle-bracket depth; `>>` lexes as two).
    if tokens.get(j)?.is_punct('<') {
        let mut depth = 1usize;
        j += 1;
        while depth > 0 {
            let t = tokens.get(j)?;
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
            }
            j += 1;
        }
    }
    if tokens.get(j)?.is_punct('(') {
        Some((name_idx, j))
    } else {
        None
    }
}

/// Splits the parameter list at `params_start` (an opening paren) into
/// top-level comma segments and flags raw-`f64` parameters whose names
/// suggest a dimensioned quantity.
fn check_fn_params(
    file: &str,
    tokens: &[Token],
    name_idx: usize,
    params_start: usize,
    out: &mut Vec<Violation>,
) {
    let fn_name = tokens[name_idx].ident().unwrap_or("?");
    let mut depth = 1usize;
    let mut angle = 0usize;
    let mut j = params_start + 1;
    let mut seg_start = j;
    let mut segments: Vec<(usize, usize)> = Vec::new();
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                if j > seg_start {
                    segments.push((seg_start, j));
                }
                break;
            }
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if t.is_punct(',') && depth == 1 && angle == 0 {
            segments.push((seg_start, j));
            seg_start = j + 1;
        }
        j += 1;
    }

    for (a, b) in segments {
        let seg = &tokens[a..b];
        // First top-level `:` splits pattern from type (`self` has none).
        let Some(colon) = seg.iter().position(|t| t.is_punct(':')) else {
            continue;
        };
        // `::` path in a pattern would confuse this; params here are plain.
        if seg.get(colon + 1).map(|t| t.is_punct(':')) == Some(true) {
            continue;
        }
        let ty = &seg[colon + 1..];
        // Raw f64: the type tokens are exactly `f64` (no reference, no
        // generics — `&[f64]` sample buffers are fine, single scalars are
        // where the unit mixup hides).
        let is_raw_f64 = ty.len() == 1 && ty[0].is_ident("f64");
        if !is_raw_f64 {
            continue;
        }
        let Some(param_name) = seg[..colon].iter().rev().find_map(|t| t.ident()) else {
            continue;
        };
        if let Some(unit) = suggested_unit_type(param_name) {
            out.push(violation(
                file,
                seg[0].line,
                "units.raw-f64",
                format!(
                    "`pub fn {fn_name}` takes `{param_name}: f64`; use `bsa_units::{unit}` \
                     so unit mixups fail to compile"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};

    const ALL: RuleSet = RuleSet {
        determinism: true,
        panic_freedom: true,
        unit_safety: true,
    };

    fn check(src: &str) -> Vec<Violation> {
        run_rules("test.rs", &strip_test_code(&lex(src)), ALL)
    }

    fn rules_found(src: &str) -> Vec<&'static str> {
        check(src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_instant_now() {
        assert_eq!(
            rules_found("fn f() { let t = Instant::now(); }"),
            vec!["det.time"]
        );
    }

    #[test]
    fn flags_thread_rng_but_not_variables_named_random() {
        assert_eq!(
            rules_found("fn f() { let mut rng = rand::thread_rng(); }"),
            vec!["det.rng"]
        );
        assert!(rules_found("fn f(random: u64) { let x = random + 1; }").is_empty());
    }

    #[test]
    fn flags_hash_collections() {
        assert_eq!(
            rules_found("use std::collections::HashMap; "),
            vec!["det.hash-collection"]
        );
    }

    #[test]
    fn flags_unordered_parallel_sum() {
        let src = "fn f(x: &[f64]) -> f64 { x.par_iter().map(|v| v * v).sum() }";
        // `}` terminates the statement scan only at depth 0; the closure
        // braces are `|v| v * v` (no braces), so the reducer is found.
        assert_eq!(rules_found(src), vec!["det.unordered-reduce"]);
    }

    #[test]
    fn per_chunk_sum_then_sequential_combine_is_fine() {
        let src = "fn f(x: &[f64]) -> f64 { \
                   let p: Vec<f64> = x.par_chunks(1024).map(|c| c.iter().sum::<f64>()).collect(); \
                   p.iter().sum() }";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn allows_ordered_parallel_collect() {
        let src = "fn f(x: &[f64]) -> Vec<f64> { x.par_iter().map(|v| v * v).collect() }";
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn flags_unwrap_and_expect_only_as_method_calls() {
        assert_eq!(rules_found("fn f() { x.unwrap(); }"), vec!["panic.unwrap"]);
        assert_eq!(
            rules_found("fn f() { x.expect(\"msg\"); }"),
            vec!["panic.expect"]
        );
        // unwrap_or and friends are total.
        assert!(rules_found("fn f() { x.unwrap_or(0.0); }").is_empty());
        assert!(rules_found("fn f() { x.unwrap_or_else(|| 0.0); }").is_empty());
    }

    #[test]
    fn flags_panicking_macros_but_not_asserts() {
        assert_eq!(
            rules_found("fn f() { panic!(\"boom\"); }"),
            vec!["panic.macro"]
        );
        assert_eq!(
            rules_found("fn f() { unreachable!(); }"),
            vec!["panic.macro"]
        );
        assert!(rules_found("fn f(n: usize) { assert!(n > 0); }").is_empty());
        assert!(rules_found("fn f(n: usize) { debug_assert_eq!(n, 1); }").is_empty());
    }

    #[test]
    fn flags_direct_indexing_but_not_array_literals_or_full_range() {
        assert_eq!(
            rules_found("fn f(x: &[f64]) { let v = x[3]; }"),
            vec!["panic.indexing"]
        );
        assert_eq!(
            rules_found("fn f(x: &[f64]) { let v = &x[1..4]; }"),
            vec!["panic.indexing"]
        );
        assert!(rules_found("fn f() { let a = [0u8; 4]; }").is_empty());
        assert!(rules_found("fn f(x: &[f64]) { let v = &x[..]; }").is_empty());
        assert!(rules_found("fn f(x: &[f64]) { let v = x.get(3); }").is_empty());
    }

    #[test]
    fn indexing_after_call_or_index_is_flagged() {
        assert_eq!(
            rules_found("fn f() { let v = g()[0]; }"),
            vec!["panic.indexing"]
        );
        assert_eq!(
            rules_found("fn f(m: &M) { let v = m.rows[0][1]; }"),
            vec!["panic.indexing", "panic.indexing"]
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            pub fn lib() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); y[0]; panic!(); }
            }
        "#;
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn flags_raw_f64_frequency_param() {
        let v = check("pub fn lowpass(fc: f64, fs: f64) -> Biquad { todo() }");
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "units.raw-f64"));
        assert!(v[0].message.contains("Hertz"));
    }

    #[test]
    fn flags_raw_f64_voltage_and_current_and_time() {
        assert_eq!(
            rules_found("pub fn set_bias(bias_voltage: f64) {}"),
            vec!["units.raw-f64"]
        );
        assert_eq!(
            rules_found("pub fn drive(current_a: f64) {}"),
            vec!["units.raw-f64"]
        );
        assert_eq!(
            rules_found("pub fn step(dt: f64) {}"),
            vec!["units.raw-f64"]
        );
    }

    #[test]
    fn newtyped_and_slice_and_private_params_are_fine() {
        assert!(rules_found("pub fn lowpass(fc: Hertz, fs: Hertz) {}").is_empty());
        assert!(rules_found("pub fn mean(samples: &[f64]) -> f64 { 0.0 }").is_empty());
        assert!(rules_found("fn helper(fs: f64) {}").is_empty());
        assert!(rules_found("pub fn scale(gain: f64) {}").is_empty());
    }

    #[test]
    fn pub_crate_fns_are_checked_too() {
        assert_eq!(
            rules_found("pub(crate) fn tick(dt: f64) {}"),
            vec!["units.raw-f64"]
        );
    }

    #[test]
    fn generic_fn_params_are_parsed() {
        assert_eq!(
            rules_found("pub fn f<T: Into<Vec<u8>>>(x: T, fs: f64) {}"),
            vec!["units.raw-f64"]
        );
    }

    #[test]
    fn violations_are_sorted_by_line() {
        let src = "fn f() {\n x.unwrap();\n let t = Instant::now();\n}";
        let v = check(src);
        assert_eq!(v.len(), 2);
        assert!(v[0].line < v[1].line);
    }
}
