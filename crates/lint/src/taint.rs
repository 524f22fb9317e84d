//! Interprocedural taint tracking over the wire trust boundary
//! (DESIGN.md §16).
//!
//! Everything a peer or a stored segment can influence is *tainted*:
//! values produced by the little-endian decode helpers (`bsa-link`'s
//! `Reader` `u8`..`u64`, which also decodes every segment byte in
//! `bsa-store`, and `from_le_bytes`), segment header metadata (`.meta()`),
//! buffers filled by `read_exact`, and fields destructured out of a
//! decoded [`Message`] (or `StreamPayload`) pattern. A tainted value must
//! not reach a *resource sink* — an allocation size (`with_capacity`,
//! `reserve`, `resize`, `vec![x; n]`), a slice index, or an unbounded
//! loop count — until a recognized validation idiom clears it:
//!
//! * an early-exit guard that upper-bounds it against an untainted value
//!   (`if n > MAX_X { return Err(..) }`, `if n != expected { .. }`),
//! * a non-exit guard whose body the bound dominates (`if n <= cap { .. }`),
//! * a `.min(untainted)` / `.clamp(..)` binding,
//! * rebinding/reassignment from untainted operands, or
//! * the `Reader::count()` idiom, which validates the declared element
//!   count against the remaining payload before returning it.
//!
//! Direction matters: `if n < MIN { return }` establishes only a *lower*
//! bound and clears nothing.
//!
//! The analysis is interprocedural: each function gets a bottom-up
//! summary of which parameters reach which sink kind, so passing a
//! tainted value into `fn grow(n: usize) { v.reserve(n) }` is flagged at
//! the call site. Cycles in the call graph are cut conservatively (the
//! back edge contributes no flows). Scope is limited to the three
//! wire-facing crates (`bsa-link`, `bsa-station`, `bsa-store`) — taint
//! does not originate anywhere else.
//!
//! Rules: `taint.wire-alloc` (allocation/loop-bound sinks),
//! `taint.wire-index` (slice indexing), `taint.wire-arith` (overflowable
//! `+`/`*` on tainted operands feeding a sink).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::flow::{
    call_arg_range, enclosing_block_end, find_cmp, last_segment, matching, path_starting_at,
    statement_end, tok_ident, tok_punct, Cmp,
};
use crate::lexer::Token;
use crate::parser::{FnItem, ParsedFile};
use crate::rules::{index_site, violation, Violation};
use crate::summary::param_names;
use crate::workspace::SourceFile;

/// Path fragments selecting the wire-facing crates.
const WIRE_SCOPES: &[&str] = &["link/src/", "station/src/", "store/src/"];

/// Method/associated-fn names whose *result* is wire-derived.
const SOURCE_CALLS: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "meta",
    "from_le_bytes",
    "from_be_bytes",
];

/// Methods whose result preserves the receiver's magnitude — taint
/// propagates through them. Everything else drops receiver taint
/// (`.len()`, `.count()`, `.iter()`, … yield validated or structural
/// values).
const PROPAGATE_RECV: &[&str] = &[
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap",
    "expect",
    "max",
    "pow",
    "abs",
    "clone",
    "copied",
    "cloned",
    "to_owned",
];

/// Methods that write their arguments into the receiver collection —
/// argument taint spreads to the receiver variable.
const GROW_METHODS: &[&str] = &[
    "push",
    "extend",
    "extend_from_slice",
    "insert",
    "append",
    "push_str",
    "copy_from_slice",
];

/// Allocation-size sink methods.
const ALLOC_METHODS: &[&str] = &[
    "with_capacity",
    "reserve",
    "reserve_exact",
    "resize",
    "set_len",
];

/// Enum roots whose destructuring patterns bind wire-decoded fields.
const WIRE_ENUMS: &[&str] = &["Message", "StreamPayload"];

/// What a tainted value is (bitwise) — the wire itself, and/or one or
/// more of the enclosing function's parameters (for summaries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TaintSet {
    wire: bool,
    params: u64,
}

impl TaintSet {
    const EMPTY: Self = Self {
        wire: false,
        params: 0,
    };
    const WIRE: Self = Self {
        wire: true,
        params: 0,
    };

    fn param(k: usize) -> Self {
        Self {
            wire: false,
            params: 1u64 << k.min(63),
        }
    }

    fn is_empty(self) -> bool {
        !self.wire && self.params == 0
    }

    fn or(self, o: Self) -> Self {
        Self {
            wire: self.wire || o.wire,
            params: self.params | o.params,
        }
    }
}

/// One scoped taint state change for a variable. `taint: None` is a
/// cleanse (a recognized validation idiom). At a query point the event
/// with the latest `start` whose scope contains the point wins.
#[derive(Debug, Clone)]
struct Event {
    var: String,
    start: usize,
    scope: Range<usize>,
    taint: Option<TaintSet>,
}

fn query(events: &[Event], var: &str, at: usize) -> TaintSet {
    let mut best: Option<(usize, usize)> = None; // (start, event index)
    for (i, e) in events.iter().enumerate() {
        if e.var == var && e.scope.contains(&at) && best.is_none_or(|b| (e.start, i) >= b) {
            best = Some((e.start, i));
        }
    }
    best.and_then(|(_, i)| events.get(i))
        .and_then(|e| e.taint)
        .unwrap_or(TaintSet::EMPTY)
}

/// Taint of an expression: the union over every value path read in it.
/// Method-call receivers contribute nothing unless the method preserves
/// magnitude; `SOURCE_CALLS` results add wire taint directly.
fn expr_taint(tokens: &[Token], range: &Range<usize>, events: &[Event]) -> TaintSet {
    let mut set = TaintSet::EMPTY;
    let mut j = range.start;
    while j < range.end {
        // Skip member/method segments (`x.field`) — but not the end of
        // a `..` range, where the preceding dot is doubled.
        let member = (tok_punct(tokens, j.wrapping_sub(1), '.')
            && !tok_punct(tokens, j.wrapping_sub(2), '.'))
            || tok_punct(tokens, j.wrapping_sub(1), ':');
        if tok_ident(tokens, j).is_some() && !member {
            if let Some((path, after)) = path_starting_at(tokens, j) {
                let root = path.split(['.', ':']).next().unwrap_or("");
                if tok_punct(tokens, after, '(') {
                    let m = last_segment(&path);
                    let qualified = path.contains('.') || path.contains(':');
                    if qualified && SOURCE_CALLS.contains(&m) {
                        set = set.or(TaintSet::WIRE);
                    }
                    if path.contains('.') && PROPAGATE_RECV.contains(&m) {
                        set = set.or(query(events, root, j));
                    }
                    // Other calls: result treated as clean; their
                    // arguments are still scanned as the walk continues.
                } else {
                    // Plain value path: taints from its root variable
                    // (field reads like `meta.rows` inherit `meta`'s).
                    set = set.or(query(events, root, j));
                }
                j = after;
                continue;
            }
        }
        j += 1;
    }
    set
}

/// `RHS` ending in `.min(args)` / `.clamp(args)` where the clamp
/// arguments are untainted — the whole binding is bounded.
fn clamped_rhs(tokens: &[Token], rhs: &Range<usize>, events: &[Event]) -> bool {
    if rhs.len() < 4 || !tok_punct(tokens, rhs.end - 1, ')') {
        return false;
    }
    let mut k = rhs.start;
    while k + 3 < rhs.end {
        if tok_punct(tokens, k, '.')
            && matches!(tok_ident(tokens, k + 1), Some("min" | "clamp"))
            && tok_punct(tokens, k + 2, '(')
            && matching(tokens, k + 2) == Some(rhs.end - 1)
        {
            return expr_taint(tokens, &(k + 3..rhs.end - 1), events).is_empty();
        }
        k += 1;
    }
    false
}

/// Harvests the scoped taint events of one function body.
fn collect_events(tokens: &[Token], f: &FnItem, params: &[String]) -> Vec<Event> {
    let body = f.body.clone();
    let mut ev: Vec<Event> = Vec::new();
    for (k, p) in params.iter().enumerate() {
        if !p.is_empty() {
            ev.push(Event {
                var: p.clone(),
                start: body.start,
                scope: body.clone(),
                taint: Some(TaintSet::param(k)),
            });
        }
    }
    let mut i = body.start;
    while i < body.end {
        if let Some(name) = tok_ident(tokens, i) {
            match name {
                "let" => let_event(tokens, i, &body, &mut ev),
                "if" => guard_events(tokens, i, &body, &mut ev),
                _ if WIRE_ENUMS.contains(&name) => match_arm_events(tokens, i, &body, &mut ev),
                "read_exact" if tok_punct(tokens, i.wrapping_sub(1), '.') => {
                    read_exact_event(tokens, i, &body, &mut ev);
                }
                m if GROW_METHODS.contains(&m) && tok_punct(tokens, i.wrapping_sub(1), '.') => {
                    grow_event(tokens, i, &body, &mut ev);
                }
                _ => reassign_event(tokens, i, &body, &mut ev),
            }
        }
        i += 1;
    }
    ev
}

/// `let [mut] X [: T] = RHS;` — X takes the RHS taint (possibly empty,
/// which shadows/clears any earlier taint on the name).
fn let_event(tokens: &[Token], i: usize, body: &Range<usize>, ev: &mut Vec<Event>) {
    let mut j = i + 1;
    if tok_ident(tokens, j) == Some("mut") {
        j += 1;
    }
    let Some(var) = tok_ident(tokens, j) else {
        return; // tuple/struct patterns: untracked (conservatively clean)
    };
    // Depth-0 `=` before the statement's `;` (skipping a `: Type`).
    let mut eq = j + 1;
    let mut d = 0i64;
    loop {
        match tokens.get(eq) {
            Some(t) if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') => d += 1,
            Some(t) if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') => d -= 1,
            Some(t) if t.is_punct('=') && d == 0 => break,
            Some(t) if t.is_punct(';') && d == 0 => return,
            None => return,
            _ => {}
        }
        if eq >= body.end {
            return;
        }
        eq += 1;
    }
    if tok_punct(tokens, eq + 1, '=') {
        return; // `==` in a `let` guard position
    }
    let Some(end) = statement_end(tokens, eq + 1, body) else {
        return;
    };
    let rhs = eq + 1..end;
    let set = if clamped_rhs(tokens, &rhs, ev) {
        TaintSet::EMPTY
    } else {
        expr_taint(tokens, &rhs, ev)
    };
    ev.push(Event {
        var: var.to_string(),
        start: end,
        scope: end..enclosing_block_end(tokens, end, body.end),
        taint: Some(set),
    });
}

/// `X = RHS;` / `X op= RHS;` — rebinding from untainted operands clears.
fn reassign_event(tokens: &[Token], i: usize, body: &Range<usize>, ev: &mut Vec<Event>) {
    if tok_punct(tokens, i.wrapping_sub(1), '.') || tok_punct(tokens, i.wrapping_sub(1), ':') {
        return;
    }
    if matches!(
        tok_ident(tokens, i.wrapping_sub(1)),
        Some("let" | "mut" | "const" | "static" | "fn")
    ) {
        return;
    }
    let Some(var) = tok_ident(tokens, i) else {
        return;
    };
    let (rhs_start, carry) = if tok_punct(tokens, i + 1, '=')
        && !tok_punct(tokens, i + 2, '=')
        && !tok_punct(tokens, i + 2, '>')
    {
        (i + 2, false)
    } else if "+-*/%&|^".chars().any(|c| tok_punct(tokens, i + 1, c))
        && tok_punct(tokens, i + 2, '=')
    {
        (i + 3, true)
    } else {
        return;
    };
    let Some(end) = statement_end(tokens, rhs_start, body) else {
        return;
    };
    let mut set = expr_taint(tokens, &(rhs_start..end), ev);
    if carry {
        set = set.or(query(ev, var, i));
    }
    ev.push(Event {
        var: var.to_string(),
        start: end,
        scope: end..enclosing_block_end(tokens, end, body.end),
        taint: Some(set),
    });
}

/// The body-open brace of an `if`/`for`/guard header starting after `at`.
fn header_open(tokens: &[Token], at: usize, body: &Range<usize>) -> Option<usize> {
    let mut d = 0i64;
    let mut j = at;
    while j < body.end {
        let t = tokens.get(j)?;
        if t.is_punct('(') || t.is_punct('[') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            d -= 1;
        } else if t.is_punct('{') {
            if d == 0 {
                return Some(j);
            }
            d += 1;
        } else if t.is_punct('}') {
            d -= 1;
        }
        j += 1;
    }
    None
}

/// Splits a condition on a doubled punct (`&&` / `||`) at depth 0.
fn split_on(tokens: &[Token], range: &Range<usize>, c: char) -> Vec<Range<usize>> {
    let mut parts = Vec::new();
    let mut d = 0i64;
    let mut start = range.start;
    let mut j = range.start;
    while j < range.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => d += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => d -= 1,
            Some(t) if d == 0 && t.is_punct(c) && tok_punct(tokens, j + 1, c) => {
                parts.push(start..j);
                j += 1;
                start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    parts.push(start..range.end);
    parts
}

fn has_depth0_double(tokens: &[Token], range: &Range<usize>, c: char) -> bool {
    split_on(tokens, range, c).len() > 1
}

/// `if COND { .. }` — the validation-idiom sanitizer. An exiting body
/// (`return`/`break`/`continue` first) clears any variable the *negated*
/// condition upper-bounds against an untainted value, for the rest of
/// the enclosing block; a non-exiting body clears variables the
/// condition itself upper-bounds, inside the body only.
fn guard_events(tokens: &[Token], i: usize, body: &Range<usize>, ev: &mut Vec<Event>) {
    if tok_ident(tokens, i + 1) == Some("let") {
        return;
    }
    let Some(open) = header_open(tokens, i + 1, body) else {
        return;
    };
    let Some(close) = matching(tokens, open) else {
        return;
    };
    let cond = i + 1..open;
    let exits = matches!(
        tok_ident(tokens, open + 1),
        Some("return" | "break" | "continue")
    );
    let (parts, scope, start) = if exits {
        // ¬(d1 ∨ d2 ∨ …) ⇒ every ¬dk holds afterwards; a mixed `&&`
        // yields no per-variable bound.
        if has_depth0_double(tokens, &cond, '&') {
            return;
        }
        let scope = close + 1..enclosing_block_end(tokens, close + 1, body.end);
        (split_on(tokens, &cond, '|'), scope, close)
    } else {
        // c1 ∧ c2 ∧ … all hold inside the body.
        if has_depth0_double(tokens, &cond, '|') {
            return;
        }
        (split_on(tokens, &cond, '&'), open + 1..close, open)
    };
    for part in parts {
        if let Some(var) = bounded_var(tokens, &part, ev, exits) {
            ev.push(Event {
                var,
                start,
                scope: scope.clone(),
                taint: None,
            });
        }
    }
}

/// The variable a comparison upper-bounds (post-negation when `negated`)
/// against an untainted other side. `n < MIN` style lower bounds return
/// `None` — they validate nothing about allocation size.
fn bounded_var(
    tokens: &[Token],
    part: &Range<usize>,
    ev: &[Event],
    negated: bool,
) -> Option<String> {
    let (lhs, op, rhs_start) = find_cmp(tokens, part)?;
    let rhs = rhs_start..part.end;
    let upper_on_lhs = if negated {
        // after `if v OP b { exit }`: ¬OP bounds v for Gt/Ge/Ne
        matches!(op, Cmp::Gt | Cmp::Ge | Cmp::Ne)
    } else {
        matches!(op, Cmp::Lt | Cmp::Le | Cmp::Eq)
    };
    let upper_on_rhs = if negated {
        matches!(op, Cmp::Lt | Cmp::Le | Cmp::Ne)
    } else {
        matches!(op, Cmp::Gt | Cmp::Ge | Cmp::Eq)
    };
    // The bound itself must not be wire-derived (`header_end > index_off`
    // with a tainted `index_off` validates nothing). A parameter-tainted
    // bound is fine: the value is then no worse than what the caller
    // already controls, and the parameter's own flows are summarized.
    if upper_on_lhs {
        if let Some(v) = simple_var(tokens, &lhs) {
            if !expr_taint(tokens, &rhs, ev).wire {
                return Some(v);
            }
        }
    }
    if upper_on_rhs {
        if let Some(v) = simple_var(tokens, &rhs) {
            if !expr_taint(tokens, &lhs, ev).wire {
                return Some(v);
            }
        }
    }
    None
}

/// A comparison side that is a single variable, modulo parentheses,
/// dereference and `as` casts: `n`, `(n as u64)`, `*n as usize`.
fn simple_var(tokens: &[Token], range: &Range<usize>) -> Option<String> {
    let mut j = range.start;
    while tok_punct(tokens, j, '(') || tok_punct(tokens, j, '*') || tok_punct(tokens, j, '&') {
        j += 1;
    }
    let var = tok_ident(tokens, j)?;
    let mut k = j + 1;
    while k < range.end {
        match tokens.get(k) {
            Some(t) if t.is_punct(')') => {}
            Some(t) if t.ident() == Some("as") => {}
            Some(t) if t.ident().is_some() && tok_ident(tokens, k - 1) == Some("as") => {
                let _ = t;
            }
            _ => return None,
        }
        k += 1;
    }
    Some(var.to_string())
}

/// `Message::Variant { a, b, .. } => ..` / tuple form — the bindings are
/// wire-decoded fields, tainted for the arm body.
fn match_arm_events(tokens: &[Token], i: usize, body: &Range<usize>, ev: &mut Vec<Event>) {
    if !(tok_punct(tokens, i + 1, ':') && tok_punct(tokens, i + 2, ':')) {
        return;
    }
    if tok_ident(tokens, i + 3).is_none() {
        return;
    }
    let pat_open = i + 4;
    let (inner, pat_close) = if tok_punct(tokens, pat_open, '{') || tok_punct(tokens, pat_open, '(')
    {
        let Some(c) = matching(tokens, pat_open) else {
            return;
        };
        (pat_open + 1..c, c)
    } else {
        return; // unit variant: nothing bound
    };
    // Pattern, not construction: an arm arrow must follow at depth 0.
    let mut j = pat_close + 1;
    let mut d = 0i64;
    let arrow = loop {
        if j + 1 >= body.end || d < 0 {
            return;
        }
        let Some(t) = tokens.get(j) else { return };
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            d -= 1;
        } else if d == 0 && t.is_punct('=') && tok_punct(tokens, j + 1, '>') {
            break j;
        } else if d == 0 && (t.is_punct(',') || t.is_punct(';')) {
            return;
        }
        j += 1;
    };
    // Arm body: a brace block, or everything up to the arm's `,` / the
    // match's closing `}`.
    let bstart = arrow + 2;
    let bend = if tok_punct(tokens, bstart, '{') {
        match matching(tokens, bstart) {
            Some(c) => c + 1,
            None => return,
        }
    } else {
        let mut j = bstart;
        let mut d = 0i64;
        loop {
            if j >= body.end {
                break j;
            }
            let Some(t) = tokens.get(j) else { break j };
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if d == 0 {
                    break j;
                }
                d -= 1;
            } else if d == 0 && t.is_punct(',') {
                break j;
            }
            j += 1;
        }
    };
    // Bindings: idents not introducing a field name (`field: pat`) and
    // not pattern keywords. A stray nested-enum segment binds a name no
    // expression reads — harmless.
    for k in inner.clone() {
        if let Some(name) = tok_ident(tokens, k) {
            if matches!(name, "mut" | "ref" | "_") || tok_punct(tokens, k + 1, ':') {
                continue;
            }
            ev.push(Event {
                var: name.to_string(),
                start: arrow,
                scope: bstart..bend,
                taint: Some(TaintSet::WIRE),
            });
        }
    }
}

/// `recv.read_exact(&mut BUF)?` — BUF now holds wire bytes.
fn read_exact_event(tokens: &[Token], i: usize, body: &Range<usize>, ev: &mut Vec<Event>) {
    if !tok_punct(tokens, i + 1, '(') {
        return;
    }
    let Some(close) = matching(tokens, i + 1) else {
        return;
    };
    let mut j = i + 2;
    if tok_punct(tokens, j, '&') {
        j += 1;
    }
    if tok_ident(tokens, j) == Some("mut") {
        j += 1;
    }
    let Some(var) = tok_ident(tokens, j) else {
        return;
    };
    if j + 1 != close {
        return; // dotted/complex target: untracked
    }
    ev.push(Event {
        var: var.to_string(),
        start: close,
        scope: close..enclosing_block_end(tokens, close, body.end),
        taint: Some(TaintSet::WIRE),
    });
}

/// `recv.push(X)` and friends — argument taint spreads to the receiver
/// collection's root variable.
fn grow_event(tokens: &[Token], i: usize, body: &Range<usize>, ev: &mut Vec<Event>) {
    if !tok_punct(tokens, i + 1, '(') || i < 2 {
        return;
    }
    let Some(close) = matching(tokens, i + 1) else {
        return;
    };
    let Some(root) = tok_ident(tokens, i - 2) else {
        return;
    };
    if tok_ident(tokens, i.wrapping_sub(3)).is_some() || tok_punct(tokens, i.wrapping_sub(3), '.') {
        return; // deeper receiver path (`self.x.push`): untracked
    }
    let args = expr_taint(tokens, &(i + 2..close), ev);
    if args.is_empty() {
        return;
    }
    let set = args.or(query(ev, root, i));
    ev.push(Event {
        var: root.to_string(),
        start: close,
        scope: close..enclosing_block_end(tokens, close, body.end),
        taint: Some(set),
    });
}

// ---------------------------------------------------------------------------
// Sinks and interprocedural summaries
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkKind {
    Alloc,
    Index,
}

impl SinkKind {
    fn rule(self) -> &'static str {
        match self {
            SinkKind::Alloc => "taint.wire-alloc",
            SinkKind::Index => "taint.wire-index",
        }
    }

    fn noun(self) -> &'static str {
        match self {
            SinkKind::Alloc => "allocation/loop bound",
            SinkKind::Index => "slice index",
        }
    }
}

/// A binary `+` or `*` at depth 0 (overflow candidates feeding a sink).
fn depth0_arith(tokens: &[Token], range: &Range<usize>) -> bool {
    let mut d = 0i64;
    for j in range.start..range.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => d += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => d -= 1,
            Some(_) if d == 0 && binary_arith_at(tokens, range, j) => return true,
            _ => {}
        }
    }
    false
}

/// A binary `+` or `*` anywhere in the range, parenthesized or not —
/// used for `let t = (a * b) as usize;` bindings that feed a sink.
fn any_arith(tokens: &[Token], range: &Range<usize>) -> bool {
    (range.start..range.end).any(|j| binary_arith_at(tokens, range, j))
}

fn binary_arith_at(tokens: &[Token], range: &Range<usize>, j: usize) -> bool {
    let Some(t) = tokens.get(j) else { return false };
    if !(t.is_punct('+') || t.is_punct('*')) || j == range.start {
        return false;
    }
    // Binary, not unary/deref: an operand must precede.
    tokens
        .get(j.wrapping_sub(1))
        .is_some_and(|prev| prev.ident().is_some() || prev.is_punct(')') || prev.is_punct(']'))
}

struct Ctx<'a> {
    sources: &'a [SourceFile],
    parsed: &'a [ParsedFile],
    /// Uniquely-named wire-crate functions: bare name → (file, fn, has_self).
    unique: BTreeMap<String, (usize, usize, bool)>,
}

type Key = (usize, usize);
type Flows = Vec<(usize, SinkKind)>;

/// Bottom-up param→sink summary with conservative cycle cut: a back
/// edge (`visiting` hit) contributes no flows.
fn summarize(
    ctx: &Ctx,
    key: Key,
    memo: &mut BTreeMap<Key, Flows>,
    viols: &mut BTreeMap<Key, Vec<Violation>>,
    visiting: &mut BTreeSet<Key>,
) -> Flows {
    if let Some(m) = memo.get(&key) {
        return m.clone();
    }
    if !visiting.insert(key) {
        return Vec::new();
    }
    let (flows, v) = analyze_fn(ctx, key, memo, viols, visiting);
    visiting.remove(&key);
    memo.insert(key, flows.clone());
    viols.insert(key, v);
    flows
}

/// Full sink scan of one function: wire-tainted sink reaches become
/// violations, parameter-tainted ones become summary flows.
fn analyze_fn(
    ctx: &Ctx,
    key: Key,
    memo: &mut BTreeMap<Key, Flows>,
    viols: &mut BTreeMap<Key, Vec<Violation>>,
    visiting: &mut BTreeSet<Key>,
) -> (Flows, Vec<Violation>) {
    let (Some(sf), Some(f)) = (
        ctx.sources.get(key.0),
        ctx.parsed.get(key.0).and_then(|pf| pf.fns.get(key.1)),
    ) else {
        return (Vec::new(), Vec::new());
    };
    let tokens = &sf.tokens;
    let (params, _) = param_names(tokens, f);
    let ev = collect_events(tokens, f, &params);
    let mut flows: Flows = Vec::new();
    let mut out: Vec<Violation> = Vec::new();
    let mut wire_args: Vec<Range<usize>> = Vec::new();

    let sink = |range: Range<usize>,
                kind: SinkKind,
                line: usize,
                what: &str,
                out: &mut Vec<Violation>,
                flows: &mut Flows,
                wire_args: &mut Vec<Range<usize>>| {
        let set = expr_taint(tokens, &range, &ev);
        if set.wire {
            out.push(violation(
                &sf.path,
                line,
                kind.rule(),
                format!("wire-derived value reaches {what} without a recognized bounds check"),
            ));
            if depth0_arith(tokens, &range) {
                out.push(violation(
                    &sf.path,
                    line,
                    "taint.wire-arith",
                    format!("overflowable arithmetic on wire-derived operands feeds {what}"),
                ));
            }
            wire_args.push(range.clone());
        }
        for k in 0..params.len().min(64) {
            if set.params & (1u64 << k) != 0 {
                flows.push((k, kind));
            }
        }
    };

    // `let` bindings computing tainted arithmetic; flagged wire-arith if
    // the bound variable later appears in a wire-flagged sink argument.
    let mut arith_lets: Vec<(String, usize)> = Vec::new();

    let mut i = f.body.start;
    while i < f.body.end {
        if let Some(name) = tok_ident(tokens, i) {
            let method_like = tok_punct(tokens, i.wrapping_sub(1), '.')
                || tok_punct(tokens, i.wrapping_sub(1), ':');
            if method_like && ALLOC_METHODS.contains(&name) && tok_punct(tokens, i + 1, '(') {
                if let Some(close) = matching(tokens, i + 1) {
                    let line = tokens.get(i).map(|t| t.line).unwrap_or(f.line);
                    sink(
                        i + 2..close,
                        SinkKind::Alloc,
                        line,
                        &format!("`{name}`"),
                        &mut out,
                        &mut flows,
                        &mut wire_args,
                    );
                }
            } else if name == "vec"
                && tok_punct(tokens, i + 1, '!')
                && tok_punct(tokens, i + 2, '[')
            {
                if let Some(close) = matching(tokens, i + 2) {
                    // `vec![elem; count]`: the count is the last depth-0 `;`.
                    let mut d = 0i64;
                    let mut semi = None;
                    for j in i + 3..close {
                        match tokens.get(j) {
                            Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => {
                                d += 1;
                            }
                            Some(t) if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => {
                                d -= 1;
                            }
                            Some(t) if t.is_punct(';') && d == 0 => semi = Some(j),
                            _ => {}
                        }
                    }
                    if let Some(s) = semi {
                        let line = tokens.get(i).map(|t| t.line).unwrap_or(f.line);
                        sink(
                            s + 1..close,
                            SinkKind::Alloc,
                            line,
                            "a `vec![elem; n]` length",
                            &mut out,
                            &mut flows,
                            &mut wire_args,
                        );
                    }
                }
            } else if name == "for" {
                // `for P in A..B {` — an unvalidated count as iteration bound.
                if let Some(open) = header_open(tokens, i + 1, &f.body) {
                    let mut d = 0i64;
                    let mut in_at = None;
                    for j in i + 1..open {
                        match tokens.get(j) {
                            Some(t) if t.is_punct('(') || t.is_punct('[') => d += 1,
                            Some(t) if t.is_punct(')') || t.is_punct(']') => d -= 1,
                            Some(t) if d == 0 && t.ident() == Some("in") => {
                                in_at = Some(j);
                                break;
                            }
                            _ => {}
                        }
                    }
                    if let Some(at) = in_at {
                        let iter = at + 1..open;
                        let dotdot = (iter.start..iter.end.saturating_sub(1))
                            .any(|j| tok_punct(tokens, j, '.') && tok_punct(tokens, j + 1, '.'));
                        if dotdot {
                            let line = tokens.get(i).map(|t| t.line).unwrap_or(f.line);
                            sink(
                                iter,
                                SinkKind::Alloc,
                                line,
                                "a loop bound",
                                &mut out,
                                &mut flows,
                                &mut wire_args,
                            );
                        }
                    }
                }
            } else if name == "let" {
                let mut j = i + 1;
                if tok_ident(tokens, j) == Some("mut") {
                    j += 1;
                }
                if let Some(var) = tok_ident(tokens, j) {
                    if let Some(end) = statement_end(tokens, j + 1, &f.body) {
                        let rhs = j + 1..end;
                        if any_arith(tokens, &rhs) && expr_taint(tokens, &rhs, &ev).wire {
                            arith_lets.push((
                                var.to_string(),
                                tokens.get(i).map(|t| t.line).unwrap_or(f.line),
                            ));
                        }
                    }
                }
            }
        } else if tok_punct(tokens, i, '[') && index_site(tokens, i) {
            if let Some(close) = matching(tokens, i) {
                let line = tokens.get(i).map(|t| t.line).unwrap_or(f.line);
                sink(
                    i + 1..close,
                    SinkKind::Index,
                    line,
                    "a slice index",
                    &mut out,
                    &mut flows,
                    &mut wire_args,
                );
            }
        } else if tok_punct(tokens, i, '(') {
            // Interprocedural: a call whose callee's summary says this
            // argument position reaches a sink.
            if let Some(path) = crate::flow::path_ending_at(tokens, i.wrapping_sub(1)) {
                if let Some(&(cfi, cgi, has_self)) = ctx.unique.get(last_segment(&path)) {
                    if has_self == path.contains('.') && (cfi, cgi) != key {
                        let callee_flows = summarize(ctx, (cfi, cgi), memo, viols, visiting);
                        if !callee_flows.is_empty() {
                            if let Some(close) = matching(tokens, i) {
                                for &(k, kind) in &callee_flows {
                                    let Some(arg) = call_arg_range(tokens, i + 1, close, k) else {
                                        continue;
                                    };
                                    let set = expr_taint(tokens, &arg, &ev);
                                    if set.wire {
                                        let line = tokens.get(i).map(|t| t.line).unwrap_or(f.line);
                                        out.push(violation(
                                            &sf.path,
                                            line,
                                            kind.rule(),
                                            format!(
                                                "wire-derived argument flows into `{callee}`, \
                                                 where it reaches a {noun} unvalidated",
                                                callee = last_segment(&path),
                                                noun = kind.noun(),
                                            ),
                                        ));
                                        wire_args.push(arg.clone());
                                    }
                                    for p in 0..params.len().min(64) {
                                        if set.params & (1u64 << p) != 0 {
                                            flows.push((p, kind));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }

    // One-hop arith feeding a sink: `let t = a * b; .. with_capacity(t)`.
    for (var, line) in arith_lets {
        let feeds = wire_args.iter().any(|r| {
            (r.start..r.end).any(|j| {
                tok_ident(tokens, j) == Some(var.as_str())
                    && !tok_punct(tokens, j.wrapping_sub(1), '.')
                    && !tok_punct(tokens, j.wrapping_sub(1), ':')
            })
        });
        if feeds {
            out.push(violation(
                &sf.path,
                line,
                "taint.wire-arith",
                format!("overflowable arithmetic on wire-derived operands binds `{var}`, which feeds a sink"),
            ));
        }
    }

    flows.sort_unstable_by_key(|&(k, kind)| (k, kind.rule()));
    flows.dedup();
    (flows, out)
}

/// Workspace taint pass: analyzes every function in the wire-facing
/// crates, bottom-up over the call graph.
pub fn taint_pass(sources: &[SourceFile], parsed: &[ParsedFile], out: &mut Vec<Violation>) {
    let in_scope: Vec<bool> = sources
        .iter()
        .map(|s| WIRE_SCOPES.iter().any(|w| s.path.contains(w)))
        .collect();

    // Bare-name-unique functions (ambiguity judged workspace-wide so a
    // wire-crate call cannot bind a same-named foreign function).
    let mut by_name: BTreeMap<String, Option<(usize, usize)>> = BTreeMap::new();
    for (fi, pf) in parsed.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            by_name
                .entry(last_segment(&f.name).to_string())
                .and_modify(|e| *e = None)
                .or_insert(Some((fi, gi)));
        }
    }
    let mut unique = BTreeMap::new();
    for (name, slot) in by_name {
        if let Some((fi, gi)) = slot {
            let wire = in_scope.get(fi) == Some(&true);
            let item = sources
                .get(fi)
                .zip(parsed.get(fi).and_then(|pf| pf.fns.get(gi)));
            if let (true, Some((sf, f))) = (wire, item) {
                let (_, has_self) = param_names(&sf.tokens, f);
                unique.insert(name, (fi, gi, has_self));
            }
        }
    }
    let ctx = Ctx {
        sources,
        parsed,
        unique,
    };

    let mut memo: BTreeMap<Key, Flows> = BTreeMap::new();
    let mut viols: BTreeMap<Key, Vec<Violation>> = BTreeMap::new();
    let mut visiting: BTreeSet<Key> = BTreeSet::new();
    let mut keys: Vec<Key> = Vec::new();
    for (fi, pf) in parsed.iter().enumerate() {
        if in_scope.get(fi) != Some(&true) {
            continue;
        }
        for gi in 0..pf.fns.len() {
            keys.push((fi, gi));
        }
    }
    for &key in &keys {
        summarize(&ctx, key, &mut memo, &mut viols, &mut visiting);
    }
    let mut seen: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    for key in keys {
        for v in viols.remove(&key).unwrap_or_default() {
            if seen.insert((v.file.clone(), v.line, v.rule)) {
                out.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(src: &str) -> Vec<Violation> {
        run_at("crates/link/src/test.rs", src)
    }

    fn run_at(path: &str, src: &str) -> Vec<Violation> {
        let sf = SourceFile {
            path: path.to_string(),
            tokens: lex(src),
        };
        let pf = parse_file(path, &sf.tokens);
        let mut out = Vec::new();
        taint_pass(&[sf], &[pf], &mut out);
        out
    }

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn wire_count_to_with_capacity_flagged() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               Vec::with_capacity(n) }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn upper_bound_exit_guard_sanitizes() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               if n > MAX_COUNT { return Vec::new(); } \
               Vec::with_capacity(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn lower_bound_guard_does_not_sanitize() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               if n < MIN_COUNT { return Vec::new(); } \
               Vec::with_capacity(n) }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn ne_exit_guard_sanitizes() {
        let v = run("fn f(b: [u8; 4], want: usize) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               if n != want { return Vec::new(); } \
               Vec::with_capacity(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn min_clamp_sanitizes() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = (u32::from_le_bytes(b) as usize).min(64); \
               Vec::with_capacity(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn reader_count_is_trusted() {
        let v = run("fn f(payload: &[u8]) -> Result<Vec<u8>, E> { \
               let mut r = Reader::new(payload); \
               let n = r.count(8, \"samples\")?; \
               Ok(Vec::with_capacity(n)) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn wire_index_flagged_and_guard_clears_it() {
        let v = run("fn f(xs: &[u8], b: [u8; 4]) -> u8 { \
               let i = u32::from_le_bytes(b) as usize; \
               xs[i] }");
        assert_eq!(rules(&v), ["taint.wire-index"], "{v:#?}");
        let v = run("fn f(xs: &[u8], b: [u8; 4]) -> u8 { \
               let i = u32::from_le_bytes(b) as usize; \
               if i < xs.len() { xs[i] } else { 0 } }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn arith_in_sink_arg_doubles_up() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               Vec::with_capacity(n * 8) }");
        assert_eq!(
            rules(&v),
            ["taint.wire-alloc", "taint.wire-arith"],
            "{v:#?}"
        );
    }

    #[test]
    fn arith_let_feeding_sink_flagged() {
        let v = run("fn f(b: [u8; 8]) -> Vec<u8> { \
               let n = u64::from_le_bytes(b); \
               let total = (n * 8) as usize; \
               Vec::with_capacity(total) }");
        assert_eq!(
            rules(&v),
            ["taint.wire-alloc", "taint.wire-arith"],
            "{v:#?}"
        );
    }

    #[test]
    fn match_arm_binding_is_tainted() {
        let v = run("fn f(msg: Message) -> Vec<u8> { \
               match msg { \
                 Message::StreamRequest { frames, window } => { \
                   let _ = window; \
                   Vec::with_capacity(frames as usize) \
                 } \
                 _ => Vec::new(), \
               } }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn message_construction_binds_nothing() {
        let v = run("fn f(token: u64) -> Message { \
               let reply = Message::Pong { token }; \
               let _ = Vec::<u8>::with_capacity(token as usize); \
               reply }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn read_exact_buffer_then_decode_flagged() {
        let v = run("fn f(r: &mut R) -> Vec<u8> { \
               let mut hdr = [0u8; 4]; \
               r.read_exact(&mut hdr); \
               let n = u32::from_le_bytes(hdr) as usize; \
               vec![0u8; n] }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn loop_bound_flagged() {
        let v = run("fn f(b: [u8; 4]) -> u64 { \
               let n = u32::from_le_bytes(b); \
               let mut acc = 0u64; \
               for _ in 0..n { acc += 1; } \
               acc }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn reassignment_from_clean_clears() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let mut n = u32::from_le_bytes(b) as usize; \
               n = 4; \
               Vec::with_capacity(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn interprocedural_param_flow_flagged_at_call_site() {
        let v = run("fn grow(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n\
             fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               grow(n) }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
        assert!(v[0].message.contains("grow"), "{v:#?}");
    }

    #[test]
    fn interprocedural_guarded_callee_is_clean() {
        let v = run("fn grow(n: usize) -> Vec<u8> { \
               if n > MAX_N { return Vec::new(); } \
               Vec::with_capacity(n) }\n\
             fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               grow(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn recursion_cycle_is_cut() {
        let v = run("fn a(n: usize) -> Vec<u8> { b(n) }\n\
             fn b(n: usize) -> Vec<u8> { a(n) }\n\
             fn f(x: [u8; 4]) -> Vec<u8> { a(u32::from_le_bytes(x) as usize) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn non_wire_crate_is_out_of_scope() {
        let v = run_at(
            "crates/dsp/src/test.rs",
            "fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               Vec::with_capacity(n) }",
        );
        assert!(v.is_empty(), "{v:#?}");
    }
}
