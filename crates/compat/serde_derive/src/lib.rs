//! Offline stand-in for `serde_derive`.
//!
//! crates.io is unreachable in the build environment, so this proc-macro
//! crate reimplements `#[derive(Serialize)]` without `syn` or `quote`: the
//! input token stream is parsed by hand and the generated impl is assembled
//! as a string. It supports exactly the two shapes the workspace derives on,
//! both non-generic:
//!
//! * a struct with named fields becomes an object of its fields in
//!   declaration order;
//! * an enum whose variants all carry no data becomes the variant's name as
//!   a string.
//!
//! Any other shape — a unit or tuple struct, a data-carrying variant, a
//! generic type — fails the build with a message naming the type.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim's `serde::Serialize` for a named-field struct or a
/// unit-variant enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let rest = strip_attrs_and_vis(&tokens);
    let (kind, name) = match rest {
        [TokenTree::Ident(kind), TokenTree::Ident(name), ..]
            if kind.to_string() == "struct" || kind.to_string() == "enum" =>
        {
            (kind.to_string(), name.to_string())
        }
        _ => panic!("serde-derive-shim: expected a `struct` or `enum` item"),
    };
    let body = match rest.get(2) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde-derive-shim: generic types are not supported (deriving on `{name}`)")
        }
        _ => panic!(
            "serde-derive-shim: only structs with named fields and enums of unit variants \
             are supported (deriving on `{name}`)"
        ),
    };
    let value = if kind == "struct" {
        let entries: Vec<String> = names(body, &name)
            .iter()
            .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"))
            .collect();
        format!("::serde::Value::Object(vec![{}])", entries.join(", "))
    } else {
        let arms: Vec<String> = names(body, &name)
            .iter()
            .map(|v| format!("{name}::{v} => \"{v}\""))
            .collect();
        format!(
            "::serde::Value::Str(match self {{ {} }}.to_string())",
            arms.join(", ")
        )
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {value} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// The field names of a named-field struct body, or the variant names of an
/// enum body. Each comma-separated entry must be `name` (a unit variant) or
/// `name: Type` (a field); a variant carrying data is rejected.
fn names(body: TokenStream, ty: &str) -> Vec<String> {
    top_level_chunks(body)
        .iter()
        .map(|chunk| match strip_attrs_and_vis(chunk) {
            [TokenTree::Ident(id)] => id.to_string(),
            [TokenTree::Ident(id), TokenTree::Punct(p), ..] if p.as_char() == ':' => id.to_string(),
            _ => panic!(
                "serde-derive-shim: only named fields and unit variants are supported \
                 (deriving on `{ty}`)"
            ),
        })
        .collect()
}

/// Splits a token stream into top-level comma-separated chunks, dropping
/// empty trailing chunks. Angle brackets are plain punctuation in token
/// streams, so generic arguments (`Option<Vec<T>>`, `Map<K, V>`) are
/// tracked by depth to keep their commas from splitting a field.
fn top_level_chunks(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    let mut angle_depth = 0usize;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1)
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                chunks.push(Vec::new());
                continue;
            }
            _ => {}
        }
        chunks.last_mut().expect("chunks is never empty").push(tt);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// Strips leading attributes (`#[...]`) and visibility (`pub`,
/// `pub(crate)`) from an item, field or variant.
fn strip_attrs_and_vis(tokens: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return &tokens[i..],
        }
    }
}
