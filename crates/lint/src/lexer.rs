//! A comment/string/attribute-aware lexer for Rust source.
//!
//! The engine deliberately does **not** parse Rust (no syn, no rustc): the
//! token rules (D4, D11) are recognizable from short token sequences, and
//! a full parse would couple the lint to a compiler version. What a token
//! matcher *must* get right to avoid false positives is the lexical layer:
//! an `Ordering::Relaxed` inside a string literal, a doc comment, or a `//`
//! comment is not code. This lexer produces a token stream with those regions
//! removed, while capturing two kinds of structured comments on the side:
//!
//! * allow directives — `// lint: allow(D5) — reason` — which suppress a
//!   rule on the same line or the next code line;
//! * fixture markers — `//~ D5` — used by the fixture corpus and `--smoke`
//!   self-check to declare where a diagnostic is expected;
//! * inventory directives — `// lint-inventory: keebo.x:counter, keebo.y` —
//!   which stand in for DESIGN.md's metrics inventory in single-file
//!   fixtures so D12 is testable without the real document.
//!
//! A directive comment may carry a trailing fixture marker
//! (`// lint-inventory: keebo.gone:gauge //~ D12`) so fixtures can expect
//! a diagnostic anchored at the directive's own line.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`as`, `Instant`, `unwrap`, ...).
    Ident,
    /// A single punctuation character (`:`, `=`, `!`, `{`, ...).
    Punct,
    /// Numeric literal, integer or float, including any suffix.
    Num,
    /// String/char/byte literal of any flavor. The verbatim source text
    /// (including quotes and any `r#`/`b` prefix) is kept in `text` so
    /// cross-artifact rules (D12 metric-name audit) can read the content;
    /// token matchers stay safe because they key on `TokKind::Ident`.
    Lit,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
}

/// One token with its source position (1-based line/column).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
    /// Set by the scope pass: the token sits in test-only code.
    pub in_test: bool,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// For a plain (non-raw, non-byte) string literal, the content between
    /// the quotes; `None` for every other token. Escapes are left verbatim —
    /// the callers match exact metric-name strings, which never contain any.
    pub fn str_content(&self) -> Option<&str> {
        if self.kind != TokKind::Lit {
            return None;
        }
        let t = self.text.as_str();
        if t.len() >= 2 && t.starts_with('"') && t.ends_with('"') {
            Some(&t[1..t.len() - 1])
        } else {
            None
        }
    }

    /// True for numeric literals that are floats (`1.0`, `1e-9`, `2f64`).
    pub fn is_float_literal(&self) -> bool {
        if self.kind != TokKind::Num {
            return false;
        }
        let t = &self.text;
        if t.starts_with("0x") || t.starts_with("0o") || t.starts_with("0b") {
            return false;
        }
        if t.ends_with("f32") || t.ends_with("f64") {
            return true;
        }
        // Integer suffixes rule the rest out even if an `e` appears (there
        // is no integer exponent syntax, so `e` implies float otherwise).
        for suf in [
            "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
        ] {
            if t.ends_with(suf) {
                return false;
            }
        }
        t.contains('.') || t.contains('e') || t.contains('E')
    }
}

/// An allow directive parsed from a comment:
/// `// lint: allow(D5) — justification text`.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Rule id, e.g. "D5".
    pub rule: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Justification text after the rule (may be empty — the engine turns
    /// an empty reason into a diagnostic of its own).
    pub reason: String,
}

/// A fixture expectation marker: `//~ D3` (same line as the pattern).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Marker {
    pub rule: String,
    pub line: u32,
}

/// A fixture-side metrics inventory row:
/// `// lint-inventory: keebo.name:kind` (kind optional).
#[derive(Debug, Clone)]
pub struct InventoryDirective {
    pub name: String,
    /// `counter` / `gauge` / `histogram`, or empty when unspecified.
    pub kind: String,
    pub line: u32,
}

/// Output of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub allows: Vec<AllowDirective>,
    pub markers: Vec<Marker>,
    pub inventory: Vec<InventoryDirective>,
}

/// Lexes `src`, discarding comments (while collecting allow directives and
/// fixture markers from their text). Literal tokens keep their verbatim
/// source text so content-aware rules can read them.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    // Advances past `n` bytes, updating line/col.
    macro_rules! bump {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < b.len() {
        let c = b[i] as char;
        let start_line = line;
        let start_col = col;

        // Line comments (incl. doc comments). Capture text for directives.
        if c == '/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let end = src[i..].find('\n').map(|n| i + n).unwrap_or(b.len());
            let text = &src[i..end];
            parse_comment(text, start_line, &mut out);
            bump!(end - i);
            continue;
        }
        // Block comments, nested.
        if c == '/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            bump!(j - i);
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br##"..."## (and byte strings).
        if (c == 'r' || c == 'b') && is_raw_string_start(b, i) {
            let j = skip_raw_string(b, i);
            out.tokens.push(Tok {
                kind: TokKind::Lit,
                text: src[i..j].to_string(),
                line: start_line,
                col: start_col,
                in_test: false,
            });
            bump!(j - i);
            continue;
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            let open = if c == '"' { i } else { i + 1 };
            let mut j = open + 1;
            while j < b.len() {
                if b[j] == b'\\' {
                    j += 2;
                } else if b[j] == b'"' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            out.tokens.push(Tok {
                kind: TokKind::Lit,
                text: src[i..j].to_string(),
                line: start_line,
                col: start_col,
                in_test: false,
            });
            bump!(j - i);
            continue;
        }
        // Byte-char literals: b'x', b'\n'. Without this, the `b` lexes as
        // an ident and the quote desynchronizes the char/lifetime logic.
        if c == 'b' && b.get(i + 1) == Some(&b'\'') {
            let mut j = i + 2;
            if b.get(j) == Some(&b'\\') {
                j += 2;
            }
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            j = (j + 1).min(b.len());
            out.tokens.push(Tok {
                kind: TokKind::Lit,
                text: src[i..j].to_string(),
                line: start_line,
                col: start_col,
                in_test: false,
            });
            bump!(j - i);
            continue;
        }
        // Char literal vs lifetime/label.
        if c == '\'' {
            let next = b.get(i + 1).copied();
            let is_char = match next {
                Some(b'\\') => true,
                Some(n) if is_ident_char(n) => {
                    // `'a'` is a char; `'a` followed by anything but `'` is
                    // a lifetime. Scan the ident run and check for a quote.
                    let mut j = i + 1;
                    while j < b.len() && is_ident_char(b[j]) {
                        j += 1;
                    }
                    b.get(j) == Some(&b'\'')
                }
                Some(_) => true, // e.g. '(' — a char literal of punctuation
                None => false,
            };
            if is_char {
                let mut j = i + 1;
                if b.get(j) == Some(&b'\\') {
                    j += 2;
                }
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                j = (j + 1).min(b.len());
                out.tokens.push(Tok {
                    kind: TokKind::Lit,
                    text: src[i..j].to_string(),
                    line: start_line,
                    col: start_col,
                    in_test: false,
                });
                bump!(j - i);
            } else {
                let mut j = i + 1;
                while j < b.len() && is_ident_char(b[j]) {
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[i..j].to_string(),
                    line: start_line,
                    col: start_col,
                    in_test: false,
                });
                bump!(j - i);
            }
            continue;
        }
        // Numbers (must come before ident so `1e9` lexes whole).
        if c.is_ascii_digit() {
            let j = skip_number(b, i);
            out.tokens.push(Tok {
                kind: TokKind::Num,
                text: src[i..j].to_string(),
                line: start_line,
                col: start_col,
                in_test: false,
            });
            bump!(j - i);
            continue;
        }
        // Identifiers and keywords.
        if is_ident_start(b[i]) {
            let mut j = i + 1;
            while j < b.len() && is_ident_char(b[j]) {
                j += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text: src[i..j].to_string(),
                line: start_line,
                col: start_col,
                in_test: false,
            });
            bump!(j - i);
            continue;
        }
        // Whitespace.
        if c.is_whitespace() {
            bump!(1);
            continue;
        }
        // Everything else: single punctuation character.
        out.tokens.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: start_line,
            col: start_col,
            in_test: false,
        });
        bump!(1);
    }
    out
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True at `r"`, `r#"`, `br"`, `br#"` etc.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

/// Skips a raw string starting at `i`, returning the index past it.
fn skip_raw_string(b: &[u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < b.len() {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && b.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    b.len()
}

/// Skips a numeric literal (int or float, with suffix), returning the index
/// past it. Handles `0x...`, `1_000`, `1.5`, `1e-9`, `2.5f64`, and does not
/// eat the `.` of a method call (`1.max(2)`) or a range (`0..n`).
fn skip_number(b: &[u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'0' && matches!(b.get(j + 1), Some(b'x' | b'o' | b'b')) {
        j += 2;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        return j;
    }
    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
        j += 1;
    }
    // Fraction: a dot followed by a digit (not `..` and not `.method()`).
    if b.get(j) == Some(&b'.') && b.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
        j += 1;
        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
    }
    // Exponent.
    if matches!(b.get(j), Some(b'e' | b'E')) {
        let mut k = j + 1;
        if matches!(b.get(k), Some(b'+' | b'-')) {
            k += 1;
        }
        if b.get(k).is_some_and(|c| c.is_ascii_digit()) {
            j = k;
            while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                j += 1;
            }
        }
    }
    // Type suffix (`f64`, `u32`, ...).
    while j < b.len() && is_ident_char(b[j]) {
        j += 1;
    }
    j
}

/// Parses directives out of one line comment.
fn parse_comment(text: &str, line: u32, out: &mut Lexed) {
    // Fixture marker: `//~ D3` (possibly several per line: `//~ D3 D5`).
    if let Some(rest) = text.strip_prefix("//~") {
        for word in rest.split_whitespace() {
            if is_rule_id(word) {
                out.markers.push(Marker {
                    rule: word.to_string(),
                    line,
                });
            }
        }
        return;
    }
    // A directive comment may end in an embedded marker, so a fixture can
    // expect a diagnostic anchored at the directive's own line.
    let text = if let Some(p) = text.find("//~").filter(|&p| p > 0) {
        for word in text[p + 3..].split_whitespace() {
            if is_rule_id(word) {
                out.markers.push(Marker {
                    rule: word.to_string(),
                    line,
                });
            }
        }
        &text[..p]
    } else {
        text
    };
    // Allow directive: `// lint: allow(D5) — reason` (also `///`-style and
    // `//!`-style so module-level docs can carry one for their first item).
    let body = text.trim_start_matches('/').trim_start_matches('!').trim();
    // Inventory directive: `// lint-inventory: keebo.x:counter, keebo.y`.
    if let Some(rest) = body.strip_prefix("lint-inventory:") {
        for entry in rest.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, kind) = match entry.split_once(':') {
                Some((n, k)) => (n.trim(), k.trim()),
                None => (entry, ""),
            };
            if name.starts_with("keebo.") {
                out.inventory.push(InventoryDirective {
                    name: name.to_string(),
                    kind: kind.to_lowercase(),
                    line,
                });
            }
        }
        return;
    }
    let Some(rest) = body.strip_prefix("lint:") else {
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return;
    };
    let Some(close) = rest.find(')') else {
        return;
    };
    let rules = &rest[..close];
    let reason = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '-', ':'])
        .trim()
        .to_string();
    for rule in rules.split(',') {
        let rule = rule.trim();
        if is_rule_id(rule) {
            out.allows.push(AllowDirective {
                rule: rule.to_string(),
                line,
                reason: reason.clone(),
            });
        }
    }
}

fn is_rule_id(s: &str) -> bool {
    s.len() >= 2 && s.starts_with('D') && s[1..].chars().all(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_and_strings_produce_no_idents() {
        let src = r##"
            // thread_rng in a comment
            /* Instant::now in /* nested */ block */
            let s = "thread_rng()";
            let r = r#"SystemTime::now()"#;
            let c = 'x';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_string()), "{ids:?}");
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'q'; }").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lit).count(),
            1,
            "one char literal"
        );
    }

    #[test]
    fn float_literals_are_classified() {
        let toks =
            lex("let a = 1.0; let b = 1e-9; let c = 2f64; let d = 3; let e = 0x1E; let f = 4u64;")
                .tokens;
        let nums: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Num).collect();
        let flags: Vec<bool> = nums.iter().map(|t| t.is_float_literal()).collect();
        assert_eq!(flags, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn method_call_on_int_does_not_eat_dot() {
        let toks = lex("let x = 1.max(2);").tokens;
        assert!(toks.iter().any(|t| t.is_ident("max")));
        assert!(toks.iter().any(|t| t.kind == TokKind::Num && t.text == "1"));
    }

    #[test]
    fn allow_directive_parses_rule_and_reason() {
        let lexed = lex("x(); // lint: allow(D5) — documented invariant\n");
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].rule, "D5");
        assert_eq!(lexed.allows[0].reason, "documented invariant");
        assert_eq!(lexed.allows[0].line, 1);
    }

    #[test]
    fn allow_directive_supports_multiple_rules_and_plain_dash() {
        let lexed = lex("// lint: allow(D1, D4) - wall-time metric only\n");
        let rules: Vec<_> = lexed.allows.iter().map(|a| a.rule.as_str()).collect();
        assert_eq!(rules, vec!["D1", "D4"]);
        assert!(lexed.allows[0].reason.contains("wall-time"));
    }

    #[test]
    fn fixture_markers_parse() {
        let lexed = lex("thread_rng(); //~ D2\n");
        assert_eq!(
            lexed.markers,
            vec![Marker {
                rule: "D2".into(),
                line: 1
            }]
        );
    }

    #[test]
    fn literals_keep_their_text() {
        let toks = lex("let a = \"keebo.x\"; let b = r#\"raw\"#; let c = b\"bytes\";").tokens;
        let lits: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lit)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec!["\"keebo.x\"", "r#\"raw\"#", "b\"bytes\""]);
        let contents: Vec<Option<&str>> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lit)
            .map(|t| t.str_content())
            .collect();
        // Only the plain string exposes content; raw/byte forms return None.
        assert_eq!(contents, vec![Some("keebo.x"), None, None]);
    }

    #[test]
    fn inventory_directive_parses() {
        let lexed = lex("// lint-inventory: keebo.a.total:counter, keebo.b, other.c:gauge\n");
        assert_eq!(lexed.inventory.len(), 2);
        assert_eq!(lexed.inventory[0].name, "keebo.a.total");
        assert_eq!(lexed.inventory[0].kind, "counter");
        assert_eq!(lexed.inventory[1].name, "keebo.b");
        assert_eq!(lexed.inventory[1].kind, "");
    }

    #[test]
    fn directive_comments_can_embed_a_marker() {
        let lexed = lex("// lint-inventory: keebo.gone:gauge //~ D12\n");
        assert_eq!(lexed.inventory.len(), 1);
        assert_eq!(lexed.inventory[0].name, "keebo.gone");
        assert_eq!(
            lexed.markers,
            vec![Marker {
                rule: "D12".into(),
                line: 1
            }]
        );
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let s = \"a\nb\";\nInstant::now();\n";
        let toks = lex(src).tokens;
        let inst = toks.iter().find(|t| t.is_ident("Instant")).unwrap();
        assert_eq!(inst.line, 3);
    }
}
