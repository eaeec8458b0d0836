//! Item-tree parsing on top of the lexer: function, impl, trait, mod and
//! struct spans recovered from the token stream.
//!
//! This is the first of the two analysis layers the reachability-aware
//! lints stand on (the second is the workspace call graph in
//! [`crate::graph`]). It is deliberately a *span* parser, not an AST: each
//! function item records its name, its impl/trait context, its body's
//! token range and line span, and whether it is test code — exactly what
//! name resolution and "which function encloses this diagnostic?" queries
//! need, and nothing more.

use crate::lexer::{in_regions, test_regions, Tok, TokKind};

/// One `fn` item (free function, inherent/trait-impl method, or trait
/// declaration — possibly without a body).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing module path inside the file (`a::b`), empty at the root.
    pub module: String,
    /// Self type when declared inside `impl Type` / `impl Trait for Type`.
    pub self_type: Option<String>,
    /// Trait name when declared inside `impl Trait for Type` or directly
    /// inside `trait Trait { ... }`.
    pub trait_name: Option<String>,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token range of the body block `[open_brace, past_close_brace)`,
    /// or `None` for bodyless declarations (`fn f();`).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (= `line` when bodyless).
    pub end_line: u32,
    /// True for functions inside `#[cfg(test)]` regions / `#[test]` fns —
    /// excluded from the call graph entirely.
    pub is_test: bool,
}

impl FnItem {
    /// Display name with impl context, e.g. `Chord::route_inner`.
    pub fn qualified(&self) -> String {
        match (&self.self_type, &self.trait_name) {
            (Some(t), _) => format!("{t}::{}", self.name),
            (None, Some(tr)) => format!("{tr}::{}", self.name),
            (None, None) => self.name.clone(),
        }
    }
}

/// One `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The self type's base identifier (`Chord` in `impl Overlay for Chord`).
    pub self_type: String,
    /// The implemented trait's base identifier, when this is a trait impl.
    pub trait_name: Option<String>,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
}

/// The item tree of one source file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// All function items in source order.
    pub fns: Vec<FnItem>,
    /// All impl block headers in source order.
    pub impls: Vec<ImplItem>,
    /// Names of `struct`/`enum` items declared in the file.
    pub types: Vec<String>,
    /// Names of inline `mod` blocks declared in the file.
    pub mods: Vec<String>,
}

impl ItemTree {
    /// Index (into `fns`) of the innermost function whose line span
    /// contains `line`. Nested fns win over their enclosing fn.
    pub fn enclosing_fn(&self, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.line <= line && line <= f.end_line)
            .min_by_key(|(_, f)| f.end_line - f.line)
            .map(|(i, _)| i)
    }
}

/// What kind of scope a `{` opened.
#[derive(Debug)]
enum Scope {
    /// Plain block, closure body, struct body, match arm, ...
    Block,
    Mod,
    Impl,
    Trait,
    /// A function body; holds the index into `ItemTree::fns`.
    Fn(usize),
}

/// Rust keywords that can precede `(` without being calls, and that never
/// name items.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while",
];

/// Is `name` a Rust keyword (so never a call target or a local)?
pub fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// Parse the token stream of one file into its item tree.
pub fn parse_items(toks: &[Tok]) -> ItemTree {
    let regions = test_regions(toks);
    let mut tree = ItemTree::default();
    // Parallel stacks: scopes entered (one per `{`), plus the current
    // mod path / impl context derived from them.
    let mut scopes: Vec<Scope> = Vec::new();
    let mut mod_path: Vec<String> = Vec::new();
    let mut impl_stack: Vec<(String, Option<String>)> = Vec::new();
    let mut trait_stack: Vec<String> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            scopes.push(Scope::Block);
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            match scopes.pop() {
                Some(Scope::Mod) => {
                    mod_path.pop();
                }
                Some(Scope::Impl) => {
                    impl_stack.pop();
                }
                Some(Scope::Trait) => {
                    trait_stack.pop();
                }
                Some(Scope::Fn(fi)) => {
                    tree.fns[fi].end_line = t.line;
                    tree.fns[fi].body = tree.fns[fi].body.map(|(s, _)| (s, i + 1));
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let item_pos = i == 0
            || toks[i - 1].is_punct('{')
            || toks[i - 1].is_punct('}')
            || toks[i - 1].is_punct(';')
            || toks[i - 1].is_punct(']')
            || toks[i - 1].is_ident("pub")
            || toks[i - 1].is_punct(')') // `pub(crate)`
            || toks[i - 1].is_ident("unsafe")
            || toks[i - 1].is_ident("default")
            || toks[i - 1].is_ident("const")
            || toks[i - 1].is_ident("async");

        match t.text.as_str() {
            "mod" if i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident => {
                let name = toks[i + 1].text.clone();
                if i + 2 < toks.len() && toks[i + 2].is_punct('{') {
                    tree.mods.push(name.clone());
                    mod_path.push(name);
                    scopes.push(Scope::Mod);
                    i += 3;
                } else {
                    i += 2; // `mod name;` — body lives in another file
                }
                continue;
            }
            "struct" | "enum" if i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident => {
                tree.types.push(toks[i + 1].text.clone());
                i += 2;
                continue;
            }
            "trait" if item_pos && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident => {
                let name = toks[i + 1].text.clone();
                // Skip bounds/generics to the body `{` (or `;` for alias).
                let mut j = i + 2;
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    trait_stack.push(name);
                    scopes.push(Scope::Trait);
                    i = j + 1;
                } else {
                    i = j;
                }
                continue;
            }
            "impl" if item_pos => {
                if let Some((hdr, body_open)) = parse_impl_header(toks, i) {
                    tree.impls.push(ImplItem {
                        self_type: hdr.0.clone(),
                        trait_name: hdr.1.clone(),
                        line: t.line,
                    });
                    impl_stack.push(hdr);
                    scopes.push(Scope::Impl);
                    i = body_open + 1;
                    continue;
                }
                i += 1;
                continue;
            }
            "fn" if i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident => {
                let name = toks[i + 1].text.clone();
                let line = t.line;
                // Body opens at the first `{` (or ends at `;`) past the
                // signature, at paren/bracket depth 0. Signatures in this
                // workspace never contain braces before the body.
                let mut depth = 0i32;
                let mut j = i + 2;
                let mut body_open = None;
                while j < toks.len() {
                    let u = &toks[j];
                    if u.is_punct('(') || u.is_punct('[') {
                        depth += 1;
                    } else if u.is_punct(')') || u.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && u.is_punct(';') {
                        break;
                    } else if depth == 0 && u.is_punct('{') {
                        body_open = Some(j);
                        break;
                    }
                    j += 1;
                }
                let (self_type, trait_name) = match impl_stack.last() {
                    Some((t, tr)) => (Some(t.clone()), tr.clone()),
                    None => (None, trait_stack.last().map(|t| t.to_string())),
                };
                let is_test = match body_open {
                    Some(b) => in_regions(b, &regions),
                    None => in_regions(i, &regions),
                };
                tree.fns.push(FnItem {
                    name,
                    module: mod_path.join("::"),
                    self_type,
                    trait_name,
                    sig_start: i,
                    body: body_open.map(|b| (b, b)),
                    line,
                    end_line: toks.get(j).map(|u| u.line).unwrap_or(line),
                    is_test,
                });
                if let Some(b) = body_open {
                    scopes.push(Scope::Fn(tree.fns.len() - 1));
                    i = b + 1;
                } else {
                    i = j;
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    tree
}

/// Parse an `impl` header starting at the `impl` token. Returns
/// `((self_type, trait_name), index of the body's '{')`, or `None` when no
/// body block is found (e.g. `impl Trait for Type;` never occurs here).
fn parse_impl_header(toks: &[Tok], impl_at: usize) -> Option<((String, Option<String>), usize)> {
    let mut j = impl_at + 1;
    // Skip leading generic parameters `impl<...>`.
    if j < toks.len() && toks[j].is_punct('<') {
        let mut angle = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                angle += 1;
            } else if toks[j].is_punct('>') {
                angle -= 1;
                if angle == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Collect path segments up to `for` / `where` / `{`, tracking the
    // base ident of each path at angle depth 0.
    let mut first_base: Option<String> = None;
    let mut second_base: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0i32;
    while j < toks.len() {
        let u = &toks[j];
        if u.is_punct('<') {
            angle += 1;
        } else if u.is_punct('>') {
            angle -= 1;
        } else if angle == 0 {
            if u.is_punct('{') {
                return impl_header_parts(saw_for, &first_base, &second_base, j);
            }
            if u.is_ident("for") {
                saw_for = true;
            } else if u.is_ident("where") {
                // Bounds until the body; keep scanning for `{` only.
                let mut k = j + 1;
                let mut a = 0i32;
                while k < toks.len() {
                    if toks[k].is_punct('<') {
                        a += 1;
                    } else if toks[k].is_punct('>') {
                        a -= 1;
                    } else if a <= 0 && toks[k].is_punct('{') {
                        return impl_header_parts(saw_for, &first_base, &second_base, k);
                    }
                    k += 1;
                }
                return None;
            } else if u.kind == TokKind::Ident && !is_keyword(&u.text) {
                // Last ident of the path at depth 0 wins (skips `crate::`
                // etc. — path separators just overwrite the base).
                if saw_for {
                    second_base = Some(u.text.clone());
                } else {
                    first_base = Some(u.text.clone());
                }
            }
        }
        j += 1;
    }
    None
}

/// Assemble the `(self_type, trait_name)` pair from the collected path
/// bases once the body `{` is found: `impl Trait for Type` puts the trait
/// first and the type second; `impl Type` has only the first path.
fn impl_header_parts(
    saw_for: bool,
    first: &Option<String>,
    second: &Option<String>,
    body: usize,
) -> Option<((String, Option<String>), usize)> {
    if saw_for {
        second.clone().map(|t| ((t, first.clone()), body))
    } else {
        first.clone().map(|t| ((t, None), body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns(src: &str) -> Vec<FnItem> {
        parse_items(&lex(src).toks).fns
    }

    #[test]
    fn free_fns_and_line_spans() {
        let src = "fn a() {\n    b();\n}\n\nfn b() {}\n";
        let f = fns(src);
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].name.as_str(), f[0].line, f[0].end_line), ("a", 1, 3));
        assert_eq!((f[1].name.as_str(), f[1].line, f[1].end_line), ("b", 5, 5));
        assert!(f[0].self_type.is_none() && f[0].trait_name.is_none());
    }

    #[test]
    fn inherent_and_trait_impl_context() {
        let src = "impl Chord {\n    fn route_inner(&self) {}\n}\n\
                   impl Overlay for Chord {\n    fn route(&self) {}\n}\n\
                   impl<K: Ord> Directory<K> {\n    fn insert(&mut self, k: K) {}\n}";
        let f = fns(src);
        assert_eq!(f[0].qualified(), "Chord::route_inner");
        assert_eq!(f[1].self_type.as_deref(), Some("Chord"));
        assert_eq!(f[1].trait_name.as_deref(), Some("Overlay"));
        assert_eq!(f[2].qualified(), "Directory::insert");
    }

    #[test]
    fn trait_default_methods_carry_the_trait_name() {
        let src = "trait Overlay {\n    fn len(&self) -> usize;\n    fn is_empty(&self) -> bool {\n        self.len() == 0\n    }\n}";
        let f = fns(src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].trait_name.as_deref(), Some("Overlay"));
        assert!(f[0].body.is_none(), "declaration has no body");
        assert_eq!(f[1].name, "is_empty");
        assert!(f[1].body.is_some());
    }

    #[test]
    fn nested_mods_and_fns_resolve_innermost() {
        let src = "mod outer {\n    fn a() {\n        fn inner() {}\n        inner();\n    }\n}";
        let tree = parse_items(&lex(src).toks);
        assert_eq!(tree.mods, ["outer"]);
        assert_eq!(tree.fns[0].module, "outer");
        let inner = tree.enclosing_fn(3).unwrap();
        assert_eq!(tree.fns[inner].name, "inner");
        let a = tree.enclosing_fn(4).unwrap();
        assert_eq!(tree.fns[a].name, "a");
    }

    #[test]
    fn impl_trait_in_return_position_is_not_an_impl_block() {
        let src = "fn ids(&self) -> impl Iterator<Item = u32> + '_ {\n    (0..3).map(|i| i)\n}";
        let tree = parse_items(&lex(src).toks);
        assert!(tree.impls.is_empty(), "{:?}", tree.impls);
        assert_eq!(tree.fns.len(), 1);
        assert_eq!(tree.fns[0].end_line, 3);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}";
        let f = fns(src);
        assert!(!f[0].is_test);
        assert!(f[1].is_test);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn hof(f: fn(u32) -> u32, g: impl Fn(u32)) -> u32 {\n    f(1)\n}";
        let f = fns(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "hof");
    }

    #[test]
    fn struct_and_enum_names_collected() {
        let src = "pub struct Chord { ids: Vec<u64> }\nenum Mode { A, B }";
        let tree = parse_items(&lex(src).toks);
        assert_eq!(tree.types, ["Chord", "Mode"]);
    }

    #[test]
    fn where_clauses_do_not_confuse_impl_bodies() {
        let src = "impl<T> Holder<T> where T: Ord {\n    fn get(&self) -> &T { &self.0 }\n}";
        let f = fns(src);
        assert_eq!(f[0].qualified(), "Holder::get");
    }
}
