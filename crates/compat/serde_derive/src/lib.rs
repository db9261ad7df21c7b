//! `#[derive(Serialize, Deserialize)]` for the vendored `serde` facade.
//!
//! This workspace builds in a hermetic environment with no crates.io
//! access, so the real serde/syn/quote stack is unavailable. The facade's
//! data model is a JSON-shaped `Value` tree — `Serialize` streams it as
//! `Sink` events (`emit`), `Deserialize` reads the tree back — which lets
//! the derive be a small hand-rolled token parser instead of a full Rust
//! grammar:
//!
//! * named/tuple/unit structs and enums with unit/tuple/struct variants,
//! * no generic types (none of the workspace's serialized types are),
//! * attributes (including `#[serde(...)]` and doc comments) are skipped.
//!
//! Representation matches serde's externally-tagged default closely
//! enough for this repo's formats: structs are JSON objects keyed by field
//! name, unit enum variants are strings, payload variants are single-key
//! objects `{"Variant": payload}`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of a type's fields.
enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

/// Parsed derive input.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Skip `#[...]` attribute pairs and a `pub` / `pub(...)` visibility prefix
/// starting at `i`; returns the index of the first token after them.
fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> usize {
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

fn ident(tok: Option<&TokenTree>) -> Option<String> {
    match tok {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

/// Advance past a type (or expression) until a top-level `,`, tracking
/// `<`/`>` nesting; bracketed constructs arrive as whole groups. Returns the
/// index of the `,` or `toks.len()`.
fn skip_to_comma(toks: &[TokenTree], mut i: usize) -> usize {
    let mut angle = 0i32;
    while i < toks.len() {
        if let TokenTree::Punct(p) = &toks[i] {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return i,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Parse `name: Type, ...` named fields out of a brace group.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<String> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        if i >= toks.len() {
            break;
        }
        let name = ident(toks.get(i)).unwrap_or_else(|| panic!("expected field name"));
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => panic!("expected `:` after field `{name}`"),
        }
        fields.push(name);
        i = skip_to_comma(&toks, i) + 1;
    }
    fields
}

/// Count the comma-separated entries of a tuple field list.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut n = 0;
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        if i >= toks.len() {
            break;
        }
        n += 1;
        i = skip_to_comma(&toks, i) + 1;
    }
    n
}

fn parse_variants(group: &proc_macro::Group) -> Vec<(String, Fields)> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        if i >= toks.len() {
            break;
        }
        let name = ident(toks.get(i)).unwrap_or_else(|| panic!("expected variant name"));
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g))
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        i = skip_to_comma(&toks, i) + 1;
        variants.push((name, fields));
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&toks, 0);
    let kind = ident(toks.get(i)).unwrap_or_else(|| panic!("expected `struct` or `enum`"));
    i += 1;
    let name = ident(toks.get(i)).unwrap_or_else(|| panic!("expected type name"));
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive (offline facade) does not support generic type `{name}`");
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match toks.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g))
                }
                _ => Fields::Unit,
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let Some(TokenTree::Group(g)) = toks.get(i) else {
                panic!("expected enum body for `{name}`");
            };
            Item::Enum {
                name,
                variants: parse_variants(g),
            }
        }
        other => panic!("cannot derive for `{other}` items"),
    }
}

/// Statements emitting `fields` into the sink `__s`, given an access
/// expression per field (`&self.x` for structs, bound match variables for
/// enum variants).
fn emit_fields(fields: &Fields, access: &dyn Fn(usize, &str) -> String) -> String {
    match fields {
        Fields::Named(names) => {
            let mut s = format!("__s.obj({});", names.len());
            for (i, n) in names.iter().enumerate() {
                s.push_str(&format!(
                    " __s.key(\"{n}\"); ::serde::Serialize::emit({}, __s);",
                    access(i, n)
                ));
            }
            s
        }
        Fields::Tuple(1) => format!("::serde::Serialize::emit({}, __s);", access(0, "")),
        Fields::Tuple(n) => {
            let mut s = format!("__s.arr({n});");
            for i in 0..*n {
                s.push_str(&format!(
                    " ::serde::Serialize::emit({}, __s);",
                    access(i, "")
                ));
            }
            s
        }
        Fields::Unit => "__s.null();".to_string(),
    }
}

/// Expression deserializing `fields` from the `Value` named by `src` into a
/// constructor body (the part after `Self::Variant` / `Self`).
fn de_fields_expr(fields: &Fields, src: &str) -> String {
    match fields {
        Fields::Named(names) => {
            let inits: Vec<String> = names
                .iter()
                .map(|n| format!("{n}: ::serde::get_field({src}, \"{n}\")?"))
                .collect();
            format!("{{ {} }}", inits.join(", "))
        }
        Fields::Tuple(1) => format!("(::serde::Deserialize::de({src})?)"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::get_index({src}, {i})?"))
                .collect();
            format!("({})", items.join(", "))
        }
        Fields::Unit => String::new(),
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_item(input) {
        Item::Struct { name, fields } => {
            let body = emit_fields(&fields, &|i, n| {
                if n.is_empty() {
                    format!("&self.{i}")
                } else {
                    format!("&self.{n}")
                }
            });
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (vname, fields) in &variants {
                match fields {
                    Fields::Unit => {
                        arms.push_str(&format!("Self::{vname} => __s.str(\"{vname}\"),\n"))
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__b{i}")).collect();
                        let body = emit_fields(fields, &|i, _| format!("__b{i}"));
                        arms.push_str(&format!(
                            "Self::{vname}({}) => {{ __s.obj(1); __s.key(\"{vname}\"); {body} }}\n",
                            binds.join(", ")
                        ));
                    }
                    Fields::Named(names) => {
                        let body = emit_fields(fields, &|_, n| n.to_string());
                        arms.push_str(&format!(
                            "Self::{vname} {{ {} }} => {{ __s.obj(1); __s.key(\"{vname}\"); {body} }}\n",
                            names.join(", ")
                        ));
                    }
                }
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn emit(&self, __s: &mut dyn ::serde::Sink) {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive generated invalid Rust")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let body = match parse_item(input) {
        Item::Struct { name, fields } => {
            let ctor = match &fields {
                Fields::Unit => "Self".to_string(),
                _ => format!("Self {}", de_fields_expr(&fields, "__v")),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn de(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         let _ = __v; ::std::result::Result::Ok({ctor})\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (vname, fields) in &variants {
                match fields {
                    Fields::Unit => arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok(Self::{vname}),\n"
                    )),
                    _ => {
                        let ctor = format!("Self::{vname} {}", de_fields_expr(fields, "__p"));
                        arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                                 let __p = __payload.ok_or_else(|| ::serde::Error::msg(\
                                     \"variant `{vname}` of {name} expects a payload\"))?;\n\
                                 ::std::result::Result::Ok({ctor})\n\
                             }},\n"
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn de(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         let (__tag, __payload) = ::serde::enum_parts(__v)?;\n\
                         let _ = &__payload;\n\
                         match __tag {{\n\
                             {arms}\n\
                             __other => ::std::result::Result::Err(::serde::Error::msg(format!(\
                                 \"unknown variant `{{}}` of {name}\", __other))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    body.parse().expect("serde_derive generated invalid Rust")
}
