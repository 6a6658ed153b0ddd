//! The determinism/concurrency rules D1–D6.
//!
//! Every rule is a token-pattern pass over one file's
//! [`crate::engine::FileCx`]. The rules are deliberately *syntactic*:
//! they over-approximate (a name once bound to a `HashMap` taints every
//! later use of that name in the file) and rely on the mandatory
//! justification of the suppression syntax to document the cases the
//! approximation gets wrong. See `DESIGN.md` §10 for the contract each
//! rule enforces and the exact heuristics.

use crate::diag::{Diagnostic, Rule};
use crate::engine::{Ct, FileCx};
use crate::lexer::TokKind;

/// Methods that begin an iteration over a collection.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Terminal iterator consumers whose result does not depend on the
/// order the elements arrive in (for exactly-representable element
/// types; float reductions are handled separately by D2).
const ORDER_INSENSITIVE: &[&str] = &[
    "count", "len", "all", "any", "max", "min", "contains", "is_empty",
];

/// Hash-receiver methods that do not iterate (no diagnostic when a
/// tainted name is only used through these).
const NON_ITERATING: &[&str] = &[
    "len",
    "is_empty",
    "contains_key",
    "contains",
    "get",
    "get_mut",
    "insert",
    "remove",
    "entry",
    "capacity",
    "reserve",
    "clear",
    "retain",
];

/// Runs every rule over the file.
pub fn run_all(cx: &FileCx, diags: &mut Vec<Diagnostic>) {
    if cx.class.test {
        return;
    }
    let hash_names = collect_hash_names(cx);
    rule_d1_d2_iteration(cx, &hash_names, diags);
    rule_d1_serialized_fields(cx, diags);
    rule_d3_env_reads(cx, diags);
    rule_d4_unwrap_in_workers(cx, diags);
    rule_d5_undocumented_unsafe(cx, diags);
    rule_d6_wall_clock(cx, diags);
    rule_d7_artifact_writes(cx, diags);
}

fn push(cx: &FileCx, diags: &mut Vec<Diagnostic>, line: u32, rule: Rule, message: String) {
    if cx.is_test_line(line) {
        return;
    }
    diags.push(Diagnostic {
        file: cx.path.to_string(),
        line,
        rule,
        message,
    });
}

fn is_ident(t: &Ct, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

/// Names bound (as let, param, field or assignment) to a
/// `HashMap`/`HashSet` anywhere in the file.
fn collect_hash_names(cx: &FileCx) -> Vec<String> {
    let code = &cx.code;
    let mut names: Vec<String> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over a `std::collections::` style path prefix.
        let mut k = i;
        while k >= 3
            && code[k - 1].text == ":"
            && code[k - 2].text == ":"
            && code[k - 3].kind == TokKind::Ident
        {
            k -= 3;
        }
        if k == 0 {
            continue;
        }
        // `name: [&/&mut/'a] HashMap<...>` — let bindings, parameters,
        // struct fields.
        let mut b = k - 1;
        while b > 0
            && (code[b].text == "&" || code[b].text == "mut" || code[b].kind == TokKind::Lifetime)
        {
            b -= 1;
        }
        if code[b].text == ":"
            && b >= 1
            && code[b - 1].kind == TokKind::Ident
            && (b < 2 || code[b - 2].text != ":")
        {
            names.push(code[b - 1].text.to_string());
            continue;
        }
        // `name = HashMap::new()` / `with_capacity` / `from` / `default`.
        if code[k - 1].text == "="
            && k >= 2
            && code[k - 2].kind == TokKind::Ident
            && i + 2 < code.len()
            && code[i + 1].text == ":"
            && code[i + 2].text == ":"
        {
            names.push(code[k - 2].text.to_string());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Whether any token in `toks` is float evidence: an `f32`/`f64` ident
/// or a float literal.
fn has_float_evidence(toks: &[Ct]) -> bool {
    toks.iter().any(|t| {
        is_ident(t, "f32")
            || is_ident(t, "f64")
            || (t.kind == TokKind::Number
                && (t.text.contains('.') || t.text.ends_with("f32") || t.text.ends_with("f64")))
    })
}

/// D1 + D2: iteration over hash containers. Walks each `name.iter()`
/// style chain to its terminal consumer; order-insensitive consumers
/// pass, float reductions are D2, everything else is D1. `for` loops
/// over tainted names are always D1 (the body is opaque).
fn rule_d1_d2_iteration(cx: &FileCx, hash_names: &[String], diags: &mut Vec<Diagnostic>) {
    let code = &cx.code;
    let tainted = |t: &Ct| t.kind == TokKind::Ident && hash_names.iter().any(|n| n == t.text);

    // Method chains rooted at a tainted name.
    for i in 0..code.len() {
        if !tainted(&code[i]) {
            continue;
        }
        let Some(dot) = code.get(i + 1) else { continue };
        let Some(m) = code.get(i + 2) else { continue };
        if dot.text != "." || m.kind != TokKind::Ident {
            continue;
        }
        if !ITER_METHODS.contains(&m.text) {
            continue;
        }
        if code.get(i + 3).map(|t| t.text) != Some("(") {
            continue;
        }
        let name = code[i].text;
        let line = code[i].line;
        let mut j = cx.matching_close(i + 3);
        let mut terminal = m.text;
        let chain_start = i;
        // Walk `.method(...)` / `.method::<...>(...)` links.
        while let Some(d) = code.get(j + 1) {
            if d.text != "." {
                break;
            }
            let Some(m2) = code.get(j + 2) else { break };
            if m2.kind != TokKind::Ident {
                break;
            }
            let mut k = j + 3;
            // Optional turbofish.
            if code.get(k).map(|t| t.text) == Some(":")
                && code.get(k + 1).map(|t| t.text) == Some(":")
                && code.get(k + 2).map(|t| t.text) == Some("<")
            {
                let mut depth = 0usize;
                k += 2;
                while k < code.len() {
                    match code[k].text {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k += 1;
            }
            if code.get(k).map(|t| t.text) != Some("(") {
                // Field access or macro — stop at the previous terminal.
                break;
            }
            terminal = m2.text;
            j = cx.matching_close(k);
        }
        let chain = &code[chain_start..=j.min(code.len() - 1)];
        match terminal {
            t if ORDER_INSENSITIVE.contains(&t) => {
                // `max`/`min` on floats do not exist via Ord; integer
                // consumers are order-free.
            }
            "sum" | "product" => {
                if has_float_evidence(chain) {
                    push(
                        cx,
                        diags,
                        line,
                        Rule::D2,
                        format!(
                            "float `{terminal}` over unordered `{name}` \
                             (HashMap/HashSet iteration): accumulation order is \
                             nondeterministic — sort first or use an ordered container"
                        ),
                    );
                }
                // Integer sums/products are exact and commutative.
            }
            "fold" => {
                let rule = if has_float_evidence(chain) {
                    Rule::D2
                } else {
                    Rule::D1
                };
                push(
                    cx,
                    diags,
                    line,
                    rule,
                    format!(
                        "`fold` over unordered `{name}` (HashMap/HashSet iteration) \
                         is order-sensitive — sort first or use an ordered container"
                    ),
                );
            }
            "collect" => {
                // Collecting back into an unordered or re-sorted
                // container is fine; everything else preserves the
                // arbitrary order.
                let turbofished_ok = chain.iter().any(|t| {
                    is_ident(t, "HashMap")
                        || is_ident(t, "HashSet")
                        || is_ident(t, "BTreeMap")
                        || is_ident(t, "BTreeSet")
                });
                if !turbofished_ok {
                    push(
                        cx,
                        diags,
                        line,
                        Rule::D1,
                        format!(
                            "collecting `{name}` (HashMap/HashSet iteration) into an \
                             ordered sequence leaks nondeterministic order — use \
                             BTreeMap/BTreeSet, sort the result, or allow with a why"
                        ),
                    );
                }
            }
            _ => {
                push(
                    cx,
                    diags,
                    line,
                    Rule::D1,
                    format!(
                        "iteration over `{name}` (HashMap/HashSet) can reach output or \
                         a reduction in nondeterministic order — use BTreeMap, sort, \
                         or allow with a why"
                    ),
                );
            }
        }
    }

    // `for pat in [&[mut]] name { … }` and `for pat in name.iter() { … }`
    // — the body is opaque, so any tainted source is D1.
    let mut i = 0usize;
    while i < code.len() {
        if !is_ident(&code[i], "for") {
            i += 1;
            continue;
        }
        // Find the `in` at depth 0, then the loop's `{`.
        let mut j = i + 1;
        let mut depth = 0usize;
        while j < code.len() {
            match code[j].text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "in" if depth == 0 && code[j].kind == TokKind::Ident => break,
                "{" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= code.len() || code[j].text != "in" {
            i = j;
            continue;
        }
        let expr_start = j + 1;
        let mut k = expr_start;
        depth = 0;
        while k < code.len() {
            match code[k].text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        for (e, t) in code[expr_start..k].iter().enumerate() {
            if !tainted(t) {
                continue;
            }
            // Skip uses through non-iterating methods (`map.len()`).
            let abs = expr_start + e;
            let next_is_call = code.get(abs + 1).map(|t| t.text) == Some(".")
                && code.get(abs + 2).is_some_and(|m| m.kind == TokKind::Ident);
            if next_is_call {
                let m = code[abs + 2].text;
                if NON_ITERATING.contains(&m) {
                    continue;
                }
            }
            push(
                cx,
                diags,
                t.line,
                Rule::D1,
                format!(
                    "`for` loop over `{}` (HashMap/HashSet): body runs in \
                     nondeterministic order — use BTreeMap, sort, or allow with a why",
                    t.text
                ),
            );
            break;
        }
        i = k.max(i + 1);
    }
}

/// D1 (serialization): a `#[derive(Serialize)]` item with a
/// `HashMap`/`HashSet` field writes its entries to the artifact in
/// arbitrary order — the artifact is no longer bit-stable.
fn rule_d1_serialized_fields(cx: &FileCx, diags: &mut Vec<Diagnostic>) {
    let code = &cx.code;
    let mut i = 0usize;
    while i + 1 < code.len() {
        if !(code[i].text == "#" && code[i + 1].text == "[") {
            i += 1;
            continue;
        }
        // Scan the attribute for `derive(... Serialize ...)`.
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut derives_serialize = false;
        let mut saw_derive = false;
        while j < code.len() {
            match code[j].text {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "derive" => saw_derive = true,
                "Serialize" if saw_derive => derives_serialize = true,
                _ => {}
            }
            j += 1;
        }
        if !derives_serialize {
            i = j.max(i + 1);
            continue;
        }
        // Skip further attributes, find the item's `{ … }` body.
        let mut k = j + 1;
        while k + 1 < code.len() && code[k].text == "#" && code[k + 1].text == "[" {
            let mut d = 0usize;
            while k < code.len() {
                match code[k].text {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut open = None;
        while k < code.len() {
            match code[k].text {
                "{" => {
                    open = Some(k);
                    break;
                }
                ";" => break,
                _ => k += 1,
            }
        }
        let Some(open_idx) = open else {
            i = k.max(i + 1);
            continue;
        };
        let close = {
            let mut depth = 0usize;
            let mut end = open_idx;
            for (m, t) in code.iter().enumerate().skip(open_idx) {
                match t.text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end = m;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            end
        };
        for t in &code[open_idx..close] {
            if is_ident(t, "HashMap") || is_ident(t, "HashSet") {
                push(
                    cx,
                    diags,
                    t.line,
                    Rule::D1,
                    format!(
                        "`{}` field inside a `#[derive(Serialize)]` item: entries \
                         serialize in arbitrary order, so the artifact is not \
                         bit-stable — use BTreeMap/BTreeSet or a custom impl",
                        t.text
                    ),
                );
            }
        }
        i = close + 1;
    }
}

/// D3: `env::var` / `env::var_os` reads outside the designated config
/// modules (see [`crate::engine::ENV_MODULES`]).
fn rule_d3_env_reads(cx: &FileCx, diags: &mut Vec<Diagnostic>) {
    if cx.class.env_module {
        return;
    }
    let code = &cx.code;
    for i in 3..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if !matches!(t.text, "var" | "var_os" | "vars" | "vars_os") {
            continue;
        }
        if code[i - 1].text == ":" && code[i - 2].text == ":" && is_ident(&code[i - 3], "env") {
            push(
                cx,
                diags,
                t.line,
                Rule::D3,
                format!(
                    "ad-hoc `env::{}` read: environment inputs must go through the \
                     designated config modules ({}) so they are parsed once and \
                     validated",
                    t.text,
                    crate::engine::ENV_MODULES.join(", ")
                ),
            );
        }
    }
}

/// D4: `unwrap()`/`expect()` inside worker-pool or spawned-thread
/// closures. A panic there must carry a real payload through the pool's
/// panic path; bare unwraps turn data bugs into opaque worker deaths.
fn rule_d4_unwrap_in_workers(cx: &FileCx, diags: &mut Vec<Diagnostic>) {
    const ENTRY_POINTS: &[&str] = &["spawn", "map_ordered", "map_ordered_mut"];
    let code = &cx.code;
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident || !ENTRY_POINTS.contains(&code[i].text) {
            continue;
        }
        if code.get(i + 1).map(|t| t.text) != Some("(") {
            continue;
        }
        let close = cx.matching_close(i + 1);
        // Only closure arguments matter: find the first `|` inside.
        let Some(closure_start) = (i + 2..close).find(|&k| code[k].text == "|") else {
            continue;
        };
        for k in closure_start..close {
            let t = &code[k];
            if t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && k >= 1
                && code[k - 1].text == "."
            {
                push(
                    cx,
                    diags,
                    t.line,
                    Rule::D4,
                    format!(
                        "`{}()` inside a `{}` worker closure: panics must ride the \
                         pool's panic-payload path — return the error, assert with a \
                         message, or allow with a why",
                        t.text, code[i].text
                    ),
                );
            }
        }
    }
}

/// D5: every `unsafe` block or `unsafe impl` needs an adjacent
/// `// SAFETY:` comment stating the invariant it relies on.
fn rule_d5_undocumented_unsafe(cx: &FileCx, diags: &mut Vec<Diagnostic>) {
    let code = &cx.code;
    // A multi-line `// SAFETY: ...` explanation is a run of line
    // comments on consecutive lines; the run reaches as far as its
    // last member, so "SAFETY:" in the first line still counts.
    let mut reach: Vec<u32> = cx.comments.iter().map(|c| c.end_line).collect();
    for idx in (0..reach.len().saturating_sub(1)).rev() {
        if cx.comments[idx + 1].line <= cx.comments[idx].end_line + 1 {
            reach[idx] = reach[idx].max(reach[idx + 1]);
        }
    }
    for i in 0..code.len() {
        if !is_ident(&code[i], "unsafe") {
            continue;
        }
        let next = code.get(i + 1).map(|t| t.text);
        if next != Some("{") && next != Some("impl") {
            continue;
        }
        let line = code[i].line;
        let documented = cx.comments.iter().zip(&reach).any(|(c, &end)| {
            c.text.contains("SAFETY:") && ((end < line && line - end <= 1) || c.line == line)
        });
        if !documented {
            push(
                cx,
                diags,
                line,
                Rule::D5,
                "`unsafe` without an adjacent `// SAFETY:` comment documenting the \
                 invariant it relies on"
                    .to_string(),
            );
        }
    }
}

/// D7: direct file writes (`fs::write`, `File::create`) outside the
/// designated atomic-I/O module (see
/// [`crate::engine::ARTIFACT_IO_MODULES`]). A crash between `create`
/// and the final byte leaves a torn, checksum-less artifact; writes
/// must go through the write-temp → fsync → rename path.
fn rule_d7_artifact_writes(cx: &FileCx, diags: &mut Vec<Diagnostic>) {
    if cx.class.artifact_io_module {
        return;
    }
    let code = &cx.code;
    for i in 3..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `fs::write(...)` / `File::create(...)` — with or without a
        // longer `std::fs::` path prefix (collect_hash_names-style
        // prefixes all end in the same two tokens).
        let (qualifier, is_write_site) = match t.text {
            "write" => ("fs", true),
            "create" | "create_new" => ("File", true),
            _ => ("", false),
        };
        if !is_write_site
            || code[i - 1].text != ":"
            || code[i - 2].text != ":"
            || !is_ident(&code[i - 3], qualifier)
            || code.get(i + 1).map(|x| x.text) != Some("(")
        {
            continue;
        }
        push(
            cx,
            diags,
            t.line,
            Rule::D7,
            format!(
                "direct `{}::{}` artifact write: a crash mid-write leaves a torn, \
                 checksum-less file — route it through the atomic writer ({}), or \
                 allow with a why if the output is advisory",
                qualifier,
                t.text,
                crate::engine::ARTIFACT_IO_MODULES.join(", ")
            ),
        );
    }
}

/// D6: wall-clock reads and sleeps in deterministic result paths.
/// Bench and profile code is exempt by path.
fn rule_d6_wall_clock(cx: &FileCx, diags: &mut Vec<Diagnostic>) {
    if cx.class.timing_exempt {
        return;
    }
    let code = &cx.code;
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let flagged = match t.text {
            "Instant" => {
                code.get(i + 1).map(|x| x.text) == Some(":")
                    && code.get(i + 2).map(|x| x.text) == Some(":")
                    && code.get(i + 3).map(|x| x.text) == Some("now")
            }
            "SystemTime" => true,
            "sleep" => {
                i >= 3
                    && code[i - 1].text == ":"
                    && code[i - 2].text == ":"
                    && is_ident(&code[i - 3], "thread")
            }
            _ => false,
        };
        if flagged {
            push(
                cx,
                diags,
                t.line,
                Rule::D6,
                format!(
                    "wall-clock (`{}`) in a deterministic result path: timing belongs \
                     in bench/profile code — move it, or allow with a why if it is \
                     display-only",
                    t.text
                ),
            );
        }
    }
}
