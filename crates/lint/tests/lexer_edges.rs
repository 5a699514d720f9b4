//! Lexer edge cases.
//!
//! The token matchers in `rules`/`index` only stay honest if the lexer gets
//! the weird corners of Rust's surface syntax right: raw strings that
//! contain quote characters, block comments that nest, lifetimes that look
//! like the start of a char literal, and byte-string flavors. Each case
//! here is a shape that once mis-lexed would either swallow real code or
//! mint phantom tokens for the rules to trip on.

use lint::lexer::{lex, TokKind};

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
        .collect()
}

fn lits(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokKind::Lit)
        .map(|t| t.text)
        .collect()
}

#[test]
fn raw_strings_swallow_quotes_and_hashes() {
    // The `"` inside the raw string must not terminate it early — otherwise
    // `Instant :: now` would leak out as idents and D1 would fire on a
    // string literal.
    let src = r####"let s = r#"says "Instant::now()" here"#; s.len();"####;
    assert_eq!(
        lits(src),
        vec![r###"r#"says "Instant::now()" here"#"###.to_string()]
    );
    assert!(!idents(src).contains(&"Instant".to_string()));

    // More hashes, and a raw string with zero hashes.
    let more = r####"let a = r##"one "# inside"##; let b = r"plain";"####;
    assert_eq!(lits(more).len(), 2);
}

#[test]
fn block_comments_nest() {
    // `/* /* */ */` — the inner close must not end the outer comment, or
    // the trailing `*/` turns into stray puncts and `hidden` leaks out.
    let src = "/* outer /* inner */ still comment */ let visible = 1;";
    let names = idents(src);
    assert_eq!(names, vec!["let".to_string(), "visible".to_string()]);

    // A marker-style comment inside a block comment is inert text.
    let lexed = lex("/* //~ D1 not a marker */ fn f() {}");
    assert!(lexed.markers.is_empty());
}

#[test]
fn lifetimes_are_not_char_literals() {
    // `'a` in `&'a str` is a lifetime; `'a'` is a char literal. Confusing
    // the two desynchronizes the lexer for the rest of the file.
    let src = "fn f<'a>(s: &'a str) -> char { 'a' }";
    let lexed = lex(src);
    let lifetimes: Vec<&str> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, vec!["'a", "'a"]);
    let chars: Vec<&str> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Lit)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, vec!["'a'"]);

    // Escaped chars and loop labels round out the corner.
    let tricky = "let c = '\\''; 'outer: loop { break 'outer; }";
    let lexed = lex(tricky);
    assert!(lexed
        .tokens
        .iter()
        .any(|t| t.kind == TokKind::Lit && t.text == "'\\''"));
    assert!(lexed
        .tokens
        .iter()
        .any(|t| t.kind == TokKind::Lifetime && t.text == "'outer"));
}

#[test]
fn byte_strings_and_byte_chars_lex_as_literals() {
    let src = r####"let a = b"bytes"; let b = br#"raw "bytes""#; let c = b'x';"####;
    assert_eq!(
        lits(src),
        vec![
            r#"b"bytes""#.to_string(),
            r###"br#"raw "bytes""#"###.to_string(),
            "b'x'".to_string(),
        ]
    );
    // Byte strings are opaque to the metric audit: only plain strings have
    // readable content.
    for t in lex(src).tokens {
        if t.kind == TokKind::Lit {
            assert_eq!(t.str_content(), None, "{}", t.text);
        }
    }
}

#[test]
fn unterminated_input_does_not_hang_or_panic() {
    // Truncated files show up mid-edit; the lexer must terminate.
    for src in [
        "let s = \"unterminated",
        "let s = r#\"unterminated",
        "/* unterminated",
        "let c = 'x",
        "fn f() { let a = 1;",
    ] {
        let _ = lex(src);
    }
}
