//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! No `syn`, no `quote`: the item is read straight off the token stream and
//! the impl is emitted as source text. Supported: non-generic structs
//! (named, tuple, unit) and enums (unit, tuple and struct variants), plus
//! the two field attributes the workspace uses, `#[serde(default)]` and
//! `#[serde(skip)]`.
//! Anything else fails the build with a message instead of guessing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    /// `#[serde(default)]`: an absent key reads as `Default::default()`.
    default: bool,
    /// `#[serde(skip)]`: never written, always read as `Default::default()`.
    skip: bool,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Whether `#[serde(<flag>)]` is among the attribute groups collected for
/// one field. Any `#[serde(..)]` other than `default` and `skip` is refused.
fn has_flag(attrs: &[TokenStream], flag: &str) -> bool {
    attrs.iter().any(|attr| {
        let mut tokens = attr.clone().into_iter();
        match (tokens.next(), tokens.next()) {
            (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
                if id.to_string() == "serde" =>
            {
                let args: Vec<String> = args.stream().into_iter().map(|t| t.to_string()).collect();
                if args != ["default"] && args != ["skip"] {
                    panic!(
                        "serde stand-in: unsupported attribute #[serde({})]",
                        args.join(" ")
                    );
                }
                args == [flag]
            }
            _ => false,
        }
    })
}

/// Splits a field or variant list on top-level commas. Groups are single
/// tokens already, so only `<...>` needs depth tracking.
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0i32;
    let mut prev_dash = false;
    for t in stream {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !prev_dash => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    prev_dash = false;
                    continue;
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        parts.last_mut().unwrap().push(t);
    }
    if parts.last().is_some_and(Vec::is_empty) {
        parts.pop();
    }
    parts
}

/// Strips leading attributes and a visibility qualifier; returns the
/// attribute bodies and the remaining tokens.
fn strip_prefix(tokens: Vec<TokenTree>) -> (Vec<TokenStream>, Vec<TokenTree>) {
    let mut attrs = Vec::new();
    let mut rest = tokens.into_iter().peekable();
    loop {
        match rest.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                rest.next();
                match rest.next() {
                    Some(TokenTree::Group(g)) => attrs.push(g.stream()),
                    other => panic!("serde stand-in: malformed attribute near {other:?}"),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                rest.next();
                if let Some(TokenTree::Group(g)) = rest.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        rest.next();
                    }
                }
            }
            _ => break,
        }
    }
    (attrs, rest.collect())
}

fn named_fields(stream: TokenStream) -> Vec<Field> {
    split_commas(stream)
        .into_iter()
        .map(|part| {
            let (attrs, rest) = strip_prefix(part);
            match rest.first() {
                Some(TokenTree::Ident(id)) => Field {
                    name: id.to_string(),
                    default: has_flag(&attrs, "default"),
                    skip: has_flag(&attrs, "skip"),
                },
                other => panic!("serde stand-in: expected a field name, found {other:?}"),
            }
        })
        .collect()
}

fn parse(input: TokenStream) -> Item {
    let (_, rest) = strip_prefix(input.into_iter().collect());
    let mut rest = rest.into_iter();
    let keyword = match rest.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde stand-in: expected struct or enum, found {other:?}"),
    };
    let name = match rest.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde stand-in: expected a type name, found {other:?}"),
    };
    let body = rest.next();
    if let Some(TokenTree::Punct(p)) = &body {
        if p.as_char() == '<' {
            panic!("serde stand-in: generic type `{name}` is not supported");
        }
    }
    match keyword.as_str() {
        "struct" => {
            let shape = match body {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(split_commas(g.stream()).len())
                }
                _ => Shape::Unit,
            };
            Item::Struct { name, shape }
        }
        "enum" => {
            let Some(TokenTree::Group(g)) = body else {
                panic!("serde stand-in: enum `{name}` has no body");
            };
            let variants = split_commas(g.stream())
                .into_iter()
                .map(|part| {
                    let (_, rest) = strip_prefix(part);
                    let mut rest = rest.into_iter();
                    let vname = match rest.next() {
                        Some(TokenTree::Ident(id)) => id.to_string(),
                        other => panic!("serde stand-in: expected a variant, found {other:?}"),
                    };
                    let shape = match rest.next() {
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                            Shape::Named(named_fields(g.stream()))
                        }
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                            Shape::Tuple(split_commas(g.stream()).len())
                        }
                        _ => Shape::Unit,
                    };
                    Variant { name: vname, shape }
                })
                .collect();
            Item::Enum { name, variants }
        }
        other => panic!("serde stand-in: cannot derive for `{other}` items"),
    }
}

/// Statements writing `{"a":<a>,"b":<b>}`; `access` maps a field name to the
/// expression that reads it.
fn write_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("out.push('{');");
    for (i, f) in fields.iter().filter(|f| !f.skip).enumerate() {
        let comma = if i > 0 { "," } else { "" };
        code += &format!(
            "out.push_str(\"{comma}\\\"{}\\\":\"); ::serde::Serialize::write_json({}, out);",
            f.name,
            access(&f.name)
        );
    }
    code + "out.push('}');"
}

/// Statements writing `[<0>,<1>]`, or the bare value for a single field.
fn write_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    if n == 1 {
        return format!("::serde::Serialize::write_json({}, out);", access(0));
    }
    let mut code = String::from("out.push('[');");
    for i in 0..n {
        if i > 0 {
            code += "out.push(',');";
        }
        code += &format!("::serde::Serialize::write_json({}, out);", access(i));
    }
    code + "out.push(']');"
}

/// Expression building `ctor { a: .., b: .. }` out of the object in `v`.
fn read_named(ctor: &str, fields: &[Field], what: &str) -> String {
    let mut code = format!("{{ let mut m = ::serde::de::expect_map(v, \"{what}\")?; {ctor} {{");
    for (i, f) in fields.iter().enumerate() {
        if f.skip {
            code += &format!("{}: ::std::default::Default::default(),", f.name);
            continue;
        }
        let helper = if f.default {
            "field_or_default"
        } else {
            "field"
        };
        code += &format!(
            "{}: ::serde::de::{helper}(&mut m, {i}, \"{}\")?,",
            f.name, f.name
        );
    }
    code + "} }"
}

/// Expression building `ctor(.., ..)` out of the value in `v`.
fn read_tuple(ctor: &str, n: usize, what: &str) -> String {
    if n == 1 {
        return format!("{ctor}(::serde::Deserialize::from_value(v)?)");
    }
    let mut code = format!("{{ let mut s = ::serde::de::expect_seq(v, {n}, \"{what}\")?; {ctor}(");
    for i in 0..n {
        code += &format!("::serde::de::elem(&mut s, {i})?,");
    }
    code + ") }"
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse(input) {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => "out.push_str(\"null\");".to_string(),
                Shape::Tuple(n) => write_tuple(n, |i| format!("&self.{i}")),
                Shape::Named(fields) => write_named(&fields, |f| format!("&self.{f}")),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in &variants {
                let vn = &v.name;
                arms += &match &v.shape {
                    Shape::Unit => format!("{name}::{vn} => out.push_str(\"\\\"{vn}\\\"\"),"),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        format!(
                            "{name}::{vn}({}) => {{ out.push_str(\"{{\\\"{vn}\\\":\"); {} out.push('}}'); }}",
                            binds.join(","),
                            write_tuple(*n, |i| format!("f{i}"))
                        )
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(
                            "{name}::{vn} {{ {} }} => {{ out.push_str(\"{{\\\"{vn}\\\":\"); {} out.push('}}'); }}",
                            binds.join(","),
                            write_named(fields, |f| f.to_string())
                        )
                    }
                };
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
           fn write_json(&self, out: &mut ::std::string::String) {{ {body} }} \
         }}"
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse(input) {
        Item::Struct { name, shape } => {
            let what = format!("struct {name}");
            let body = match shape {
                Shape::Unit => format!("{{ let _ = v; {name} }}"),
                Shape::Tuple(n) => read_tuple(&name, n, &what),
                Shape::Named(fields) => read_named(&name, &fields, &what),
            };
            (name, format!("::std::result::Result::Ok({body})"))
        }
        Item::Enum { name, variants } => {
            let what = format!("enum {name}");
            let mut arms = String::new();
            for v in &variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                let value = match &v.shape {
                    Shape::Unit => ctor,
                    Shape::Tuple(n) => format!(
                        "{{ let v = ::serde::de::payload(payload, \"{vn}\")?; {} }}",
                        read_tuple(&ctor, *n, &what)
                    ),
                    Shape::Named(fields) => format!(
                        "{{ let v = ::serde::de::payload(payload, \"{vn}\")?; {} }}",
                        read_named(&ctor, fields, &what)
                    ),
                };
                arms += &format!("\"{vn}\" => ::std::result::Result::Ok({value}),");
            }
            let body = format!(
                "let (tag, payload) = ::serde::de::variant(v, \"{what}\")?; \
                 let _ = &payload; \
                 match tag.as_str() {{ {arms} \
                   other => ::std::result::Result::Err(::serde::de::unknown_variant(other, \"{what}\")), }}"
            );
            (name, body)
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
           fn from_value(v: ::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} \
         }}"
    )
    .parse()
    .expect("serde stand-in: generated Deserialize impl parses")
}
