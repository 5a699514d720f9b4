//! Brace-tree structural layer over the token stream.
//!
//! The token matchers in `rules.rs` see one line at a time; the concurrency
//! rules (D8, D10) need to know *where* a token sits: which `fn` body, which
//! block, behind which closure boundary. This pass builds that shape
//! without parsing Rust: a single forward walk pairs every `{` with its `}`
//! and labels each block by the construct that introduced it (`fn`, `while`,
//! `loop`, a closure header, `unsafe`, ...). The result is a tree of
//! [`Block`]s plus an owner map from token index to innermost block.
//!
//! Guarantees (pinned by the fixture corpus and `tests/lexer_edges.rs`):
//!
//! * **Never panics**, whatever the input — unbalanced braces produce
//!   blocks closed at end-of-file, stray `}` are ignored;
//! * labels are a best-effort approximation (a struct literal brace inside
//!   an `if` condition can steal the pending label), which is fine for the
//!   rules built on top: they only ever *reset* on `Fn`/`Closure`
//!   boundaries.

use crate::lexer::Tok;

/// What introduced a brace-delimited block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockKind {
    /// A named `fn` item body (free function, method, or trait default).
    Fn {
        name: String,
    },
    /// A `|...| { ... }` closure body. Braceless closure bodies are not
    /// blocks — they stay part of the surrounding statement.
    Closure,
    Loop,
    While,
    For,
    If,
    Match,
    Unsafe,
    Impl,
    Mod,
    Trait,
    /// `struct` / `enum` / `union` body.
    Adt,
    /// Plain expression/statement block (including match arms and struct
    /// literals).
    Plain,
}

/// One brace-delimited block.
#[derive(Debug, Clone)]
pub struct Block {
    pub kind: BlockKind,
    /// Token index of the introducing keyword (`fn`, `while`, the closure's
    /// opening `|`), or of the `{` itself for plain blocks. For `Fn` blocks
    /// the range `intro..open` is the signature.
    pub intro: usize,
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the matching `}`, or `tokens.len()` when the file is
    /// truncated/unbalanced (the block is closed at end-of-input).
    pub close: usize,
    /// Index into [`FileStructure::blocks`] of the enclosing block.
    pub parent: Option<usize>,
}

impl Block {
    /// Is this block a context boundary for intra-function analysis?
    /// Guards and held-lock sets never cross a `fn` or closure edge.
    pub fn is_body_root(&self) -> bool {
        matches!(self.kind, BlockKind::Fn { .. } | BlockKind::Closure)
    }
}

/// The brace tree of one file.
#[derive(Debug, Default)]
pub struct FileStructure {
    pub blocks: Vec<Block>,
    /// Innermost block index per token; `usize::MAX` = file level.
    owner: Vec<usize>,
}

impl FileStructure {
    /// Innermost block containing token `tok`, if any.
    pub fn block_at(&self, tok: usize) -> Option<usize> {
        match self.owner.get(tok) {
            Some(&b) if b != usize::MAX => Some(b),
            _ => None,
        }
    }

    /// Indices of all `Fn` and `Closure` blocks, in source order.
    pub fn body_roots(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_body_root())
            .map(|(i, _)| i)
    }
}

/// Builds the brace tree for a token stream. Total, never panics.
pub fn build_structure(tokens: &[Tok]) -> FileStructure {
    let mut st = FileStructure {
        blocks: Vec::new(),
        owner: vec![usize::MAX; tokens.len()],
    };
    // Open blocks by index into `st.blocks`.
    let mut stack: Vec<usize> = Vec::new();
    // Construct keyword seen, waiting for its `{`: (kind, intro index).
    let mut pending: Option<(BlockKind, usize)> = None;

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        st.owner[i] = stack.last().copied().unwrap_or(usize::MAX);

        if t.kind == crate::lexer::TokKind::Ident {
            // A pending `fn` owns everything up to its `{` or `;`: keywords
            // inside the signature (`impl Fn(..)` params, `for<'a>` HRTBs,
            // `unsafe fn()` pointer types) must not steal the label.
            if matches!(pending, Some((BlockKind::Fn { .. }, _))) {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "fn" => {
                    if let Some(name) = tokens
                        .get(i + 1)
                        .filter(|n| n.kind == crate::lexer::TokKind::Ident)
                    {
                        pending = Some((
                            BlockKind::Fn {
                                name: name.text.clone(),
                            },
                            i,
                        ));
                    }
                }
                "loop" => pending = Some((BlockKind::Loop, i)),
                "while" => pending = Some((BlockKind::While, i)),
                // `for` also appears in `impl Trait for Type` — keep the
                // pending Impl in that case.
                "for" if !matches!(pending, Some((BlockKind::Impl, _))) => {
                    pending = Some((BlockKind::For, i));
                }
                "if" | "else" => pending = Some((BlockKind::If, i)),
                "match" => pending = Some((BlockKind::Match, i)),
                // `unsafe fn`/`unsafe impl` are overwritten by the later
                // keyword; a bare `unsafe {` keeps this label.
                "unsafe" => pending = Some((BlockKind::Unsafe, i)),
                "impl" => pending = Some((BlockKind::Impl, i)),
                "mod" => pending = Some((BlockKind::Mod, i)),
                "trait" => pending = Some((BlockKind::Trait, i)),
                "struct" | "enum" | "union" => pending = Some((BlockKind::Adt, i)),
                _ => {}
            }
            i += 1;
            continue;
        }

        // Closure header: an opening `|` in expression position. If the
        // matching `|` is followed by `{`, that brace opens a Closure block.
        if t.is_punct('|') && closure_position(tokens, i) {
            if let Some(close_bar) = closure_header_end(tokens, i) {
                if tokens.get(close_bar + 1).is_some_and(|n| n.is_punct('{')) {
                    pending = Some((BlockKind::Closure, i));
                }
                // Skip the header so `|` params can't re-trigger detection.
                for k in i..=close_bar.min(tokens.len() - 1) {
                    st.owner[k] = stack.last().copied().unwrap_or(usize::MAX);
                }
                i = close_bar + 1;
                continue;
            }
        }

        if t.is_punct('{') {
            let (kind, intro) = pending.take().unwrap_or((BlockKind::Plain, i));
            let idx = st.blocks.len();
            st.blocks.push(Block {
                kind,
                intro,
                open: i,
                close: tokens.len(),
                parent: stack.last().copied(),
            });
            stack.push(idx);
            // The brace belongs to the block it opens.
            st.owner[i] = idx;
        } else if t.is_punct('}') {
            if let Some(idx) = stack.pop() {
                st.blocks[idx].close = i;
                st.owner[i] = idx;
            }
            // Stray `}` at file level: ignored.
        } else if t.is_punct(';') {
            // A pending keyword consumed by a braceless item
            // (`struct S;`, a trait's `fn f();`).
            pending = None;
        }
        i += 1;
    }
    st
}

/// Is the `|` at `i` in a position where a closure can start? (As opposed
/// to a binary `|`, a `||` tail, or a pattern alternative.)
fn closure_position(tokens: &[Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| tokens.get(p)) else {
        return true; // file starts with a closure — fine
    };
    if prev.kind == crate::lexer::TokKind::Ident {
        return matches!(prev.text.as_str(), "move" | "return" | "else" | "in");
    }
    prev.is_punct('(')
        || prev.is_punct(',')
        || prev.is_punct('=')
        || prev.is_punct('>') // `=>` arm bodies
        || prev.is_punct('{')
        || prev.is_punct(';')
        || prev.is_punct(':')
}

/// Finds the closing `|` of a closure header opened at `i`. Bails (None)
/// when the scan crosses a statement/grouping boundary first — then the
/// `|` was a pattern alternative (`Some(A | B)`), not a closure.
fn closure_header_end(tokens: &[Tok], i: usize) -> Option<usize> {
    // `||` — empty parameter list.
    if tokens.get(i + 1).is_some_and(|n| n.is_punct('|')) {
        return Some(i + 1);
    }
    let mut j = i + 1;
    // Parameter patterns may nest groups: `|(a, b)| ...`, `|[x, y]| ...`.
    let mut depth = 0usize;
    // Parameter lists are short; bound the scan hard.
    let limit = (i + 64).min(tokens.len());
    while j < limit {
        let t = &tokens[j];
        if depth == 0 && t.is_punct('|') {
            return Some(j);
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                return None;
            }
            depth -= 1;
        } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn structure(src: &str) -> (Vec<Tok>, FileStructure) {
        let lexed = lex(src);
        let st = build_structure(&lexed.tokens);
        (lexed.tokens, st)
    }

    fn kind_of_block_containing<'a>(
        toks: &[Tok],
        st: &'a FileStructure,
        ident: &str,
    ) -> &'a BlockKind {
        let (i, _) = toks
            .iter()
            .enumerate()
            .find(|(_, t)| t.is_ident(ident))
            .expect("ident present");
        let b = st.block_at(i).expect("inside a block");
        &st.blocks[b].kind
    }

    #[test]
    fn fn_bodies_are_labelled_and_named() {
        let (toks, st) = structure("fn alpha() { body(); }\nfn beta() { other(); }");
        assert_eq!(
            kind_of_block_containing(&toks, &st, "body"),
            &BlockKind::Fn {
                name: "alpha".into()
            }
        );
        assert_eq!(
            kind_of_block_containing(&toks, &st, "other"),
            &BlockKind::Fn {
                name: "beta".into()
            }
        );
    }

    #[test]
    fn loop_while_for_unsafe_are_labelled() {
        let src = "fn f() { loop { a(); } while c { b(); } for x in v { d(); } unsafe { u(); } }";
        let (toks, st) = structure(src);
        assert_eq!(kind_of_block_containing(&toks, &st, "a"), &BlockKind::Loop);
        assert_eq!(kind_of_block_containing(&toks, &st, "b"), &BlockKind::While);
        assert_eq!(kind_of_block_containing(&toks, &st, "d"), &BlockKind::For);
        assert_eq!(
            kind_of_block_containing(&toks, &st, "u"),
            &BlockKind::Unsafe
        );
    }

    #[test]
    fn closure_bodies_are_blocks_and_braceless_ones_are_not() {
        let src = "fn f() { run(move |x| { inner(); }); let g = |y| y + 1; }";
        let (toks, st) = structure(src);
        assert_eq!(
            kind_of_block_containing(&toks, &st, "inner"),
            &BlockKind::Closure
        );
        // `y + 1` stays in the fn body.
        assert!(matches!(
            kind_of_block_containing(&toks, &st, "y"),
            BlockKind::Fn { .. }
        ));
    }

    #[test]
    fn tuple_pattern_closures_are_detected() {
        let src = "fn f(v: V) { v.iter().for_each(|(k, x)| { g(k, x); }); }";
        let (toks, st) = structure(src);
        assert_eq!(
            kind_of_block_containing(&toks, &st, "g"),
            &BlockKind::Closure
        );
    }

    #[test]
    fn pattern_alternatives_are_not_closures() {
        let src = "fn f(v: E) { match v { E::A(X | Y) => a(), _ => b(), } }";
        let (toks, st) = structure(src);
        // No Closure blocks at all.
        assert!(st.blocks.iter().all(|b| b.kind != BlockKind::Closure));
        assert_eq!(kind_of_block_containing(&toks, &st, "a"), &BlockKind::Match);
    }

    #[test]
    fn logical_or_is_not_a_closure() {
        let src = "fn f(a: bool, b: bool) { if a || b { t(); } }";
        let (toks, st) = structure(src);
        assert!(st.blocks.iter().all(|b| b.kind != BlockKind::Closure));
        assert_eq!(kind_of_block_containing(&toks, &st, "t"), &BlockKind::If);
    }

    #[test]
    fn impl_for_keeps_impl_label() {
        let src = "impl Display for Foo { fn fmt(&self) { x(); } }";
        let (toks, st) = structure(src);
        assert!(matches!(
            kind_of_block_containing(&toks, &st, "x"),
            BlockKind::Fn { .. }
        ));
        let fn_block = st
            .blocks
            .iter()
            .find(|b| matches!(b.kind, BlockKind::Fn { .. }))
            .unwrap();
        let parent = &st.blocks[fn_block.parent.unwrap()];
        assert_eq!(parent.kind, BlockKind::Impl);
    }

    #[test]
    fn unbalanced_input_never_panics() {
        for src in [
            "fn f() { {{{",
            "}}} fn g() {}",
            "fn f( { } )",
            "|",
            "let x = || ;",
            "{ } } {",
            "",
        ] {
            let lexed = lex(src);
            let st = build_structure(&lexed.tokens);
            // Every recorded block has open <= close.
            assert!(st.blocks.iter().all(|b| b.open <= b.close));
        }
    }

    #[test]
    fn fn_signature_range_is_available() {
        let (toks, st) = structure("fn wrap(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock() }");
        let b = &st.blocks[0];
        assert!(matches!(b.kind, BlockKind::Fn { .. }));
        let sig: Vec<&str> = toks[b.intro..b.open]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(sig.contains(&"MutexGuard"));
    }
}
