//! Offline derive-macro shim for the vendored `serde` facade.
//!
//! The build environment has no network access, so the workspace vendors
//! a minimal JSON-only serde facade (`crates/compat/serde`). This crate
//! provides its `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros,
//! hand-rolled on the bare `proc_macro` API (no `syn`/`quote`). The
//! generated code goes straight between JSON text and the type:
//!
//! * `Serialize::write_json` appends compact JSON to a `String`: fields
//!   in declaration order, keys and punctuation as precomputed literals,
//!   values through the facade's writer primitives;
//! * `Deserialize::read_json` reads in one pass from a
//!   `serde::json::Reader`: keys compare as borrowed byte slices, the
//!   first occurrence of a key wins, unknown keys are skipped (still
//!   syntax-checked), and only owned strings and containers that end up
//!   in the value allocate;
//! * `Deserialize::deserialize` rebuilds the type from a parsed
//!   `serde::Value` tree. It is the reference the reader must agree
//!   with, and the path that words decode errors.
//!
//! Supported shapes — exactly what the workspace uses:
//!
//! * structs with named fields (plus unit and tuple structs),
//! * enums with unit / tuple / struct variants, externally tagged like
//!   real serde (`"Variant"`, `{"Variant": content}`); in map form,
//!   unknown sibling keys are ignored and two known variant keys are an
//!   error,
//! * `#[serde(untagged)]` on enums (read by buffering one `Value` and
//!   trying each variant in order),
//! * `#[serde(default)]` and `#[serde(default = "path")]` on fields; a
//!   field without a default that is absent reads as `null`, so an
//!   `Option` is `None`, an `f64` is NaN, and anything else is a
//!   missing-field error.
//!
//! Anything else (generics, lifetimes, other serde attributes) produces
//! a `compile_error!` so misuse is loud rather than silently wrong.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// Field-level serde metadata.
#[derive(Default, Clone)]
struct AttrInfo {
    untagged: bool,
    /// `None` = no default; `Some(None)` = `Default::default()`;
    /// `Some(Some(path))` = call `path()`.
    default: Option<Option<String>>,
}

struct Field {
    name: String,
    default: Option<Option<String>>,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Data {
    Struct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    untagged: bool,
    data: Data,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde shim codegen error: {e}"))),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut item_attr = AttrInfo::default();
    parse_attrs(&toks, &mut i, &mut item_attr)?;
    skip_visibility(&toks, &mut i);
    let kw = expect_ident(toks.get(i), "`struct` or `enum`")?;
    i += 1;
    let name = expect_ident(toks.get(i), "type name")?;
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim: generic type `{name}` is not supported"
            ));
        }
    }
    let data = match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Struct(parse_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Data::Struct(Vec::new()),
            _ => return Err(format!("serde shim: malformed struct `{name}`")),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream())?)
            }
            _ => return Err(format!("serde shim: malformed enum `{name}`")),
        },
        other => return Err(format!("serde shim: cannot derive for item kind `{other}`")),
    };
    Ok(Item {
        name,
        untagged: item_attr.untagged,
        data,
    })
}

fn parse_attrs(toks: &[TokenTree], i: &mut usize, out: &mut AttrInfo) -> Result<(), String> {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1;
                match toks.get(*i) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        scan_attr_group(g, out)?;
                        *i += 1;
                    }
                    _ => return Err("serde shim: malformed attribute".into()),
                }
            }
            _ => return Ok(()),
        }
    }
}

fn scan_attr_group(g: &Group, out: &mut AttrInfo) -> Result<(), String> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) = (toks.first(), toks.get(1))
    else {
        return Ok(()); // doc comments, other attrs: ignore
    };
    if id.to_string() != "serde" || args.delimiter() != Delimiter::Parenthesis {
        return Ok(());
    }
    for entry in split_top_level(args.stream()) {
        if entry.is_empty() {
            continue;
        }
        let key = match &entry[0] {
            TokenTree::Ident(k) => k.to_string(),
            other => {
                return Err(format!(
                    "serde shim: unexpected token `{other}` in #[serde(...)]"
                ))
            }
        };
        match key.as_str() {
            "untagged" => out.untagged = true,
            "default" => {
                if entry.len() == 1 {
                    out.default = Some(None);
                } else if entry.len() == 3 {
                    let lit = entry[2].to_string();
                    let path = lit.trim_matches('"').to_string();
                    out.default = Some(Some(path));
                } else {
                    return Err("serde shim: malformed #[serde(default ...)]".into());
                }
            }
            other => return Err(format!("serde shim: unsupported serde attribute `{other}`")),
        }
    }
    Ok(())
}

fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = vec![Vec::new()];
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == ',' => out.push(Vec::new()),
            _ => out.last_mut().unwrap().push(t),
        }
    }
    if out.last().is_some_and(Vec::is_empty) {
        out.pop();
    }
    out
}

fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn expect_ident(t: Option<&TokenTree>, what: &str) -> Result<String, String> {
    match t {
        Some(TokenTree::Ident(id)) => Ok(id.to_string()),
        other => Err(format!("serde shim: expected {what}, found {other:?}")),
    }
}

/// Parse `name: Type, ...` (named fields of a struct or struct variant).
fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let mut attr = AttrInfo::default();
        parse_attrs(&toks, &mut i, &mut attr)?;
        skip_visibility(&toks, &mut i);
        let name = expect_ident(toks.get(i), "field name")?;
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "serde shim: expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        skip_type(&toks, &mut i);
        if i < toks.len() {
            i += 1; // the separating comma
        }
        fields.push(Field {
            name,
            default: attr.default,
        });
    }
    Ok(fields)
}

/// Advance past one type, stopping at a top-level `,` (angle-bracket aware;
/// parenthesized/bracketed sub-trees are single opaque tokens already).
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut angle = 0i64;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => return,
            _ => {}
        }
        *i += 1;
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let parts = split_type_list(stream);
    parts.len()
}

fn split_type_list(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle = 0i64;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(Vec::new());
                continue;
            }
            _ => {}
        }
        out.last_mut().unwrap().push(t);
    }
    if out.last().is_some_and(Vec::is_empty) {
        out.pop();
    }
    out.retain(|p| !p.is_empty());
    out
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        let mut attr = AttrInfo::default();
        parse_attrs(&toks, &mut i, &mut attr)?;
        let name = expect_ident(toks.get(i), "variant name")?;
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let k = VariantKind::Struct(parse_fields(g.stream())?);
                i += 1;
                k
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let k = VariantKind::Tuple(count_tuple_fields(g.stream()));
                i += 1;
                k
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant, then the separating comma.
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// --------------------------------------------------------------- codegen

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::Struct(fields) => {
            let access: Vec<String> = fields.iter().map(|f| format!("&self.{}", f.name)).collect();
            ser_fields(fields, &access)
        }
        Data::TupleStruct(n) => {
            let access: Vec<String> = (0..*n).map(|k| format!("&self.{k}")).collect();
            ser_tuple(&access)
        }
        Data::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                arms.push_str(&ser_variant_arm(name, v, item.untagged));
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, __out: &mut ::std::string::String) {{ {body} }}\n\
         }}"
    )
}

/// Statements appending `text` verbatim.
fn push_text(text: &str) -> String {
    format!("__out.push_str({text:?});\n")
}

/// Statements writing the value behind the reference expression `expr`.
fn write_expr(expr: &str) -> String {
    format!("::serde::Serialize::write_json({expr}, __out);\n")
}

/// Statements writing named fields as a JSON object, in declaration
/// order; `access[i]` is a reference expression for field `i`.
fn ser_fields(fields: &[Field], access: &[String]) -> String {
    if fields.is_empty() {
        return push_text("{}");
    }
    let mut code = String::new();
    for (i, (f, expr)) in fields.iter().zip(access).enumerate() {
        let sep = if i == 0 { "{" } else { "," };
        code.push_str(&push_text(&format!("{sep}\"{}\":", f.name)));
        code.push_str(&write_expr(expr));
    }
    code.push_str(&push_text("}"));
    code
}

/// Statements writing tuple fields: the lone field itself for a
/// newtype, a JSON array otherwise.
fn ser_tuple(access: &[String]) -> String {
    if let [only] = access {
        return write_expr(only);
    }
    let mut code = push_text("[");
    for (i, expr) in access.iter().enumerate() {
        if i > 0 {
            code.push_str(&push_text(","));
        }
        code.push_str(&write_expr(expr));
    }
    code.push_str(&push_text("]"));
    code
}

fn ser_variant_arm(ty: &str, v: &Variant, untagged: bool) -> String {
    let vn = &v.name;
    let (pattern, content) = match &v.kind {
        VariantKind::Unit => {
            let text = if untagged {
                "null".to_string()
            } else {
                format!("\"{vn}\"")
            };
            return format!("{ty}::{vn} => {{ {} }}\n", push_text(&text));
        }
        VariantKind::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
            (
                format!("{ty}::{vn}({})", binds.join(", ")),
                ser_tuple(&binds),
            )
        }
        VariantKind::Struct(fields) => {
            let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
            (
                format!("{ty}::{vn} {{ {} }}", binds.join(", ")),
                ser_fields(fields, &binds),
            )
        }
    };
    let body = if untagged {
        content
    } else {
        format!(
            "{}{content}{}",
            push_text(&format!("{{\"{vn}\":")),
            push_text("}")
        )
    };
    format!("{pattern} => {{ {body} }}\n")
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::Struct(fields) => {
            let ctor = de_named_fields_ctor(name, fields, "__obj");
            format!(
                "let __obj = __v.as_object().ok_or_else(|| \
                 ::serde::DeError::expected(\"a map for struct {name}\", __v))?;\n\
                 ::std::result::Result::Ok({ctor})"
            )
        }
        Data::TupleStruct(n) => de_tuple_struct_body(name, *n),
        Data::Enum(variants) => {
            if item.untagged {
                de_untagged_enum_body(name, variants)
            } else {
                de_tagged_enum_body(name, variants)
            }
        }
    };
    // Untagged enums keep the trait's default `read_json`, which
    // buffers one value and tries the variants against it.
    let reader = match &item.data {
        Data::Struct(fields) => read_fields_expr(name, fields),
        Data::TupleStruct(n) => read_tuple_expr(name, *n),
        Data::Enum(_) if item.untagged => String::new(),
        Data::Enum(variants) => read_tagged_enum_expr(name, variants),
    };
    let read_json = if reader.is_empty() {
        String::new()
    } else {
        format!(
            "fn read_json(__r: &mut ::serde::json::Reader<'_>) \
             -> ::std::result::Result<Self, ::serde::DeError> {{\n{reader}\n}}\n"
        )
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__v: &::serde::Value) \
             -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
             {read_json}\
         }}"
    )
}

/// The value of a field absent from its map: the declared default, or
/// whatever `null` reads as (so `Option` is `None` and `f64` is NaN),
/// else a `missing_field` error.
fn missing_field_expr(fname: &str, ctor_path: &str, default: &Option<Option<String>>) -> String {
    match default {
        None => format!(
            "::serde::Deserialize::deserialize(&::serde::Value::Null)\
             .map_err(|_| ::serde::DeError::missing_field(\"{fname}\", \"{ctor_path}\"))?"
        ),
        Some(None) => "::std::default::Default::default()".to_string(),
        Some(Some(path)) => format!("{path}()"),
    }
}

/// Expression reading a JSON object into `ctor_path { fields }` straight
/// from the text: keys compare as borrowed bytes, the first occurrence
/// of a key wins, unknown keys are skipped (syntax-checked).
fn read_fields_expr(ctor_path: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        let fname = &f.name;
        slots.push_str(&format!("let mut __s{i} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "b\"{fname}\" if __s{i}.is_none() => {{ \
             __s{i} = ::std::option::Option::Some(::serde::Deserialize::read_json(__r)?); }}\n"
        ));
        let missing = missing_field_expr(fname, ctor_path, &f.default);
        inits.push_str(&format!(
            "{fname}: match __s{i} {{ \
             ::std::option::Option::Some(__x) => __x, \
             ::std::option::Option::None => {missing}, }},\n"
        ));
    }
    format!(
        "{{ {slots}\
         __r.begin_object()?;\n\
         let mut __first = true;\n\
         while let ::std::option::Option::Some(__k) = __r.next_key(&mut __first)? {{\n\
             match __k.as_bytes() {{\n{arms}\
                 _ => __r.skip_value()?,\n\
             }}\n\
         }}\n\
         ::std::result::Result::Ok({ctor_path} {{ {inits} }}) }}"
    )
}

/// Expression reading tuple fields into `ctor_path(..)`: the lone field
/// itself for a newtype, an exact-length JSON array otherwise.
fn read_tuple_expr(ctor_path: &str, n: usize) -> String {
    if n == 1 {
        return format!(
            "::std::result::Result::Ok({ctor_path}(::serde::Deserialize::read_json(__r)?))"
        );
    }
    let mut reads = String::new();
    let mut binds = Vec::new();
    for k in 0..n {
        reads.push_str(&format!(
            "if !__r.next_element(&mut __first)? {{ \
             return ::std::result::Result::Err(__r.mismatch(\"{n} elements\")); }}\n\
             let __t{k} = ::serde::Deserialize::read_json(__r)?;\n"
        ));
        binds.push(format!("__t{k}"));
    }
    format!(
        "{{ __r.begin_array()?;\n\
         let mut __first = true;\n\
         {reads}\
         if __r.next_element(&mut __first)? {{ \
         return ::std::result::Result::Err(__r.mismatch(\"{n} elements\")); }}\n\
         ::std::result::Result::Ok({ctor_path}({})) }}",
        binds.join(", ")
    )
}

/// Expression reading an externally tagged enum straight from the text,
/// with the rules of the `Value` path: a string names a unit variant; in
/// a map, unknown sibling keys are skipped, exactly one known variant
/// key must appear, and a unit variant's content is ignored.
fn read_tagged_enum_expr(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut tag_arms = String::new();
    for v in variants {
        let vn = &v.name;
        let ctor = format!("{name}::{vn}");
        let read = match &v.kind {
            VariantKind::Unit => {
                unit_arms.push_str(&format!(
                    "b\"{vn}\" => ::std::result::Result::Ok({ctor}),\n"
                ));
                format!("{{ __r.skip_value()?; ::std::result::Result::Ok({ctor}) }}")
            }
            VariantKind::Tuple(n) => read_tuple_expr(&ctor, *n),
            VariantKind::Struct(fields) => read_fields_expr(&ctor, fields),
        };
        tag_arms.push_str(&format!("b\"{vn}\" => {read},\n"));
    }
    format!(
        "match __r.peek_token() {{\n\
             ::std::option::Option::Some(b'\"') => {{\n\
                 let __tag = __r.str_cow()?;\n\
                 match __tag.as_bytes() {{\n{unit_arms}\
                     _ => ::std::result::Result::Err(__r.mismatch(\"a unit variant of {name}\")),\n\
                 }}\n\
             }}\n\
             ::std::option::Option::Some(b'{{') => {{\n\
                 __r.begin_object()?;\n\
                 let mut __first = true;\n\
                 let mut __found: ::std::option::Option<Self> = ::std::option::Option::None;\n\
                 while let ::std::option::Option::Some(__k) = __r.next_key(&mut __first)? {{\n\
                     let __variant: ::std::result::Result<Self, ::serde::DeError> = \
                     match __k.as_bytes() {{\n{tag_arms}\
                         _ => {{ __r.skip_value()?; continue; }}\n\
                     }};\n\
                     if __found.is_some() {{\n\
                         return ::std::result::Result::Err(__r.mismatch(\"one variant key for {name}\"));\n\
                     }}\n\
                     __found = ::std::option::Option::Some(__variant?);\n\
                 }}\n\
                 __found.ok_or_else(|| __r.mismatch(\"a variant key for {name}\"))\n\
             }}\n\
             _ => ::std::result::Result::Err(__r.mismatch(\"a string or tagged map for enum {name}\")),\n\
         }}"
    )
}

/// Constructor expression `Ty { f: <lookup>, ... }` reading from `obj_var`.
fn de_named_fields_ctor(ctor_path: &str, fields: &[Field], obj_var: &str) -> String {
    let mut inits = String::new();
    for f in fields {
        let fname = &f.name;
        let missing = missing_field_expr(fname, ctor_path, &f.default);
        inits.push_str(&format!(
            "{fname}: match ::serde::find_field({obj_var}, \"{fname}\") {{\n\
                 ::std::option::Option::Some(__x) => \
                 ::serde::Deserialize::deserialize(__x)\
                 .map_err(|__e| __e.in_field(\"{fname}\"))?,\n\
                 ::std::option::Option::None => {missing},\n\
             }},\n"
        ));
    }
    format!("{ctor_path} {{ {inits} }}")
}

fn de_tuple_struct_body(name: &str, n: usize) -> String {
    if n == 1 {
        return format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__v)?))"
        );
    }
    let items: Vec<String> = (0..n)
        .map(|k| format!("::serde::Deserialize::deserialize(&__arr[{k}])?"))
        .collect();
    format!(
        "let __arr = __v.as_array().ok_or_else(|| \
         ::serde::DeError::expected(\"an array for tuple struct {name}\", __v))?;\n\
         if __arr.len() != {n} {{ return ::std::result::Result::Err(\
         ::serde::DeError::new(format!(\"expected {n} elements for {name}, got {{}}\", __arr.len()))); }}\n\
         ::std::result::Result::Ok({name}({}))",
        items.join(", ")
    )
}

fn de_tagged_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut str_arms = String::new();
    for v in variants {
        if matches!(v.kind, VariantKind::Unit) {
            let vn = &v.name;
            str_arms.push_str(&format!(
                "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
            ));
        }
    }
    let mut tag_arms = String::new();
    for v in variants {
        let vn = &v.name;
        let arm = match &v.kind {
            VariantKind::Unit => format!("::std::result::Result::Ok({name}::{vn})"),
            VariantKind::Tuple(1) => format!(
                "::std::result::Result::Ok({name}::{vn}(\
                 ::serde::Deserialize::deserialize(__content)\
                 .map_err(|__e| __e.in_field(\"{vn}\"))?))"
            ),
            VariantKind::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|k| format!("::serde::Deserialize::deserialize(&__arr[{k}])?"))
                    .collect();
                format!(
                    "{{ let __arr = __content.as_array().ok_or_else(|| \
                     ::serde::DeError::expected(\"an array for variant {name}::{vn}\", __content))?;\n\
                     if __arr.len() != {n} {{ return ::std::result::Result::Err(\
                     ::serde::DeError::new(format!(\"expected {n} elements for {name}::{vn}, got {{}}\", __arr.len()))); }}\n\
                     ::std::result::Result::Ok({name}::{vn}({})) }}",
                    items.join(", ")
                )
            }
            VariantKind::Struct(fields) => {
                let ctor = de_named_fields_ctor(&format!("{name}::{vn}"), fields, "__o");
                format!(
                    "{{ let __o = __content.as_object().ok_or_else(|| \
                     ::serde::DeError::expected(\"a map for variant {name}::{vn}\", __content))?;\n\
                     ::std::result::Result::Ok({ctor}) }}"
                )
            }
        };
        tag_arms.push_str(&format!("\"{vn}\" => return {arm},\n"));
    }
    // Forward compatibility: rather than demanding exactly one key, scan
    // the object for the key naming a known variant and ignore any
    // sibling keys — a newer peer can annotate `{"Variant": ...}` with
    // extra metadata without breaking older builds. Two known-variant
    // keys in one map are ambiguous (which did the peer mean?) and are
    // rejected rather than resolved by iteration order. Only when *no*
    // key matches is the first key reported as the unknown variant.
    let known_pat = variants
        .iter()
        .map(|v| format!("\"{}\"", v.name))
        .collect::<Vec<_>>()
        .join(" | ");
    let ambiguity_guard = if variants.is_empty() {
        String::new()
    } else {
        format!(
            "let mut __known = 0usize;\n\
             for (__tag, _) in __obj.iter() {{\n\
                 match __tag.as_str() {{\n\
                     {known_pat} => {{ __known += 1; }}\n\
                     _ => {{}}\n\
                 }}\n\
             }}\n\
             if __known > 1 {{\n\
                 return ::std::result::Result::Err(::serde::DeError::new(\
                 format!(\"ambiguous map for enum {name}: {{__known}} variant keys present\")));\n\
             }}\n"
        )
    };
    format!(
        "if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
             return match __s {{\n{str_arms}\
                 __other => ::std::result::Result::Err(\
                 ::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
             }};\n\
         }}\n\
         if let ::std::option::Option::Some(__obj) = __v.as_object() {{\n\
             {ambiguity_guard}\
             for (__tag, __content) in __obj.iter() {{\n\
                 let _ = __content;\n\
                 match __tag.as_str() {{\n{tag_arms}\
                     _ => {{}}\n\
                 }}\n\
             }}\n\
             if let ::std::option::Option::Some((__tag, _)) = __obj.first() {{\n\
                 return ::std::result::Result::Err(\
                 ::serde::DeError::unknown_variant(__tag, \"{name}\"));\n\
             }}\n\
         }}\n\
         ::std::result::Result::Err(::serde::DeError::expected(\
         \"a string or tagged map for enum {name}\", __v))"
    )
}

fn de_untagged_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut attempts = String::new();
    for v in variants {
        let vn = &v.name;
        match &v.kind {
            VariantKind::Unit => attempts.push_str(&format!(
                "if __v.is_null() {{ return ::std::result::Result::Ok({name}::{vn}); }}\n"
            )),
            VariantKind::Tuple(1) => attempts.push_str(&format!(
                "if let ::std::result::Result::Ok(__x) = \
                 ::serde::Deserialize::deserialize(__v) \
                 {{ return ::std::result::Result::Ok({name}::{vn}(__x)); }}\n"
            )),
            VariantKind::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|k| format!("::serde::Deserialize::deserialize(&__arr[{k}])?"))
                    .collect();
                attempts.push_str(&format!(
                    "if let ::std::result::Result::Ok(__x) = \
                     (|| -> ::std::result::Result<{name}, ::serde::DeError> {{\n\
                         let __arr = __v.as_array().ok_or_else(|| \
                         ::serde::DeError::new(\"not an array\".to_string()))?;\n\
                         if __arr.len() != {n} {{ return ::std::result::Result::Err(\
                         ::serde::DeError::new(\"wrong arity\".to_string())); }}\n\
                         ::std::result::Result::Ok({name}::{vn}({}))\n\
                     }})() {{ return ::std::result::Result::Ok(__x); }}\n",
                    items.join(", ")
                ));
            }
            VariantKind::Struct(fields) => {
                let ctor = de_named_fields_ctor(&format!("{name}::{vn}"), fields, "__o");
                attempts.push_str(&format!(
                    "if let ::std::result::Result::Ok(__x) = \
                     (|| -> ::std::result::Result<{name}, ::serde::DeError> {{\n\
                         let __o = __v.as_object().ok_or_else(|| \
                         ::serde::DeError::new(\"not a map\".to_string()))?;\n\
                         ::std::result::Result::Ok({ctor})\n\
                     }})() {{ return ::std::result::Result::Ok(__x); }}\n"
                ));
            }
        }
    }
    format!(
        "{attempts}\
         ::std::result::Result::Err(::serde::DeError::expected(\
         \"a value matching some variant of untagged enum {name}\", __v))"
    )
}
