//! Query-text hashing (the C6 security boundary).
//!
//! The paper (§5.2 fn. 4): "we use the hash value of the query text and the
//! hash value of the query template (i.e., query text stripped of all
//! constants) to find identical and similar queries". This module provides
//! both: FNV-1a over the raw text, and FNV-1a over a normalized template in
//! which string and numeric literals are replaced by placeholders.

use cdw_sim::mix::Fnv1a;

/// FNV-1a 64-bit hash of the full query text.
pub fn hash_query_text(text: &str) -> u64 {
    Fnv1a::default().write(text.as_bytes()).finish()
}

/// FNV-1a 64-bit hash of the query template ([`strip_literals`] applied
/// first), so queries differing only in constants collide.
pub fn hash_query_template(text: &str) -> u64 {
    Fnv1a::default()
        .write(strip_literals(text).as_bytes())
        .finish()
}

/// Replaces literals with placeholders: single-quoted strings become `'?'`,
/// numeric literals become `?`. Whitespace runs collapse and keywords are
/// uppercased so formatting differences do not split templates.
pub fn strip_literals(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let mut last_was_space = false;
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                // Consume until the closing quote (handling '' escapes).
                loop {
                    match chars.next() {
                        Some('\'') => {
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
                out.push_str("'?'");
                last_was_space = false;
            }
            '0'..='9' => {
                // Only treat as a literal when not part of an identifier.
                let prev_ident = out
                    .chars()
                    .last()
                    .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_');
                if prev_ident {
                    out.push(c);
                } else {
                    while let Some(&n) = chars.peek() {
                        if n.is_ascii_digit() || n == '.' || n == 'e' || n == 'E' {
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    out.push('?');
                }
                last_was_space = false;
            }
            c if c.is_whitespace() => {
                if !last_was_space && !out.is_empty() {
                    out.push(' ');
                    last_was_space = true;
                }
            }
            c => {
                out.push(c.to_ascii_uppercase());
                last_was_space = false;
            }
        }
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_text_hashes_identically() {
        assert_eq!(hash_query_text("SELECT 1"), hash_query_text("SELECT 1"));
        assert_ne!(hash_query_text("SELECT 1"), hash_query_text("SELECT 2"));
    }

    #[test]
    fn templates_collapse_numeric_literals() {
        let a = "SELECT * FROM orders WHERE amount > 100";
        let b = "SELECT * FROM orders WHERE amount > 250";
        assert_ne!(hash_query_text(a), hash_query_text(b));
        assert_eq!(hash_query_template(a), hash_query_template(b));
    }

    #[test]
    fn templates_collapse_string_literals() {
        let a = "SELECT * FROM users WHERE region = 'emea'";
        let b = "SELECT * FROM users WHERE region = 'apac'";
        assert_eq!(hash_query_template(a), hash_query_template(b));
    }

    #[test]
    fn escaped_quotes_stay_inside_the_literal() {
        let a = "SELECT 'it''s' FROM t WHERE x = 5";
        let s = strip_literals(a);
        assert_eq!(s, "SELECT '?' FROM T WHERE X = ?");
    }

    #[test]
    fn identifiers_with_digits_survive() {
        let s = strip_literals("SELECT col2 FROM t2 WHERE x = 2");
        assert_eq!(s, "SELECT COL2 FROM T2 WHERE X = ?");
    }

    #[test]
    fn whitespace_and_case_are_normalized() {
        let a = "select   *\nfrom T";
        let b = "SELECT * FROM t";
        assert_eq!(hash_query_template(a), hash_query_template(b));
    }

    #[test]
    fn different_shapes_stay_distinct() {
        let a = "SELECT a FROM t WHERE x = 1";
        let b = "SELECT b FROM t WHERE x = 1";
        assert_ne!(hash_query_template(a), hash_query_template(b));
    }

    #[test]
    fn decimal_and_scientific_literals_collapse() {
        let a = strip_literals("SELECT * FROM t WHERE x > 1.5e10");
        assert_eq!(a, "SELECT * FROM T WHERE X > ?");
    }
}
