//! The workspace call graph and reachability from simulation entry points.
//!
//! Built on the item trees of every scanned file, the graph resolves
//! calls by name within the workspace:
//!
//! - `foo(...)` and `path::foo(...)` resolve to every workspace function
//!   named `foo` (free functions and methods alike);
//! - `Type::method(...)` narrows to the impls of `Type` when `Type` is a
//!   workspace type, falling back to the name-wide set otherwise;
//! - `recv.method(...)` narrows through a per-function local type
//!   environment (`recv: Type` parameters, `let recv: Type` bindings,
//!   `let recv = Type::ctor(...)`, and `self`); trait-object and generic
//!   receivers fall back to every function of that name, which unions the
//!   trait's impls and its default methods.
//!
//! Unresolvable calls therefore *over*-approximate: code can be reported
//! reachable when it is not, but never the reverse (within workspace
//! name resolution). `#[cfg(test)]` functions are excluded as both
//! sources and targets. Reachability is a BFS from the entry points in
//! [`ENTRY_POINTS`], keeping parent pointers so every finding can carry
//! an entry-point → call-path → site trace.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{is_keyword, ItemTree};
use crate::lexer::{Tok, TokKind};
use crate::lints::FileCtx;

/// The functions the reproducibility contract is anchored to: the batch
/// executor, plus the two harness sweeps that drive simulation code no
/// query batch reaches — the scale sweep (bed builds, bare routing) and
/// the durability sweep (the churn loop that mutates the overlays). Every
/// query batch of every artifact resolves in `fold_batch`, the one resolve
/// loop `run_batch` folds over, so rooting at `run_batch` reaches every
/// batched query path. Figure 6's churn loop, which issues one query per
/// tick, calls the same `ResourceDiscovery::query` directly. A sim-purity
/// violation matters exactly when it can flow into these.
pub const ENTRY_POINTS: &[(&str, &str)] =
    &[("sim", "run_batch"), ("bench", "run_scale"), ("bench", "run_durability")];

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Crate directory (`sim`, `chord`, ...).
    pub crate_dir: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Impl/trait-qualified display name (`Chord::route_inner`).
    pub qualified: String,
    /// Line span of the item.
    pub line: u32,
    /// Last line of the item.
    pub end_line: u32,
}

impl FnNode {
    /// Fully-qualified display form used in traces: `crate::Type::fn`.
    pub fn display(&self) -> String {
        format!("{}::{}", self.crate_dir, self.qualified)
    }
}

/// The assembled graph plus its reachability analysis.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All indexed (non-test) functions.
    pub nodes: Vec<FnNode>,
    /// Adjacency: callee ids per node.
    edges: Vec<Vec<usize>>,
    /// Total directed edge count.
    pub edge_count: usize,
    /// BFS result: reachable from any entry point.
    reachable: Vec<bool>,
    /// BFS parent pointers (toward an entry point), for traces.
    parent: Vec<Option<usize>>,
    /// Node ids of the resolved entry points.
    pub entries: Vec<usize>,
    /// Per-file line index: `file -> [(start, end, node)]`.
    span_index: BTreeMap<String, Vec<(u32, u32, usize)>>,
}

impl CallGraph {
    /// Number of functions reachable from the entry points.
    pub fn reachable_count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }

    /// Innermost indexed function containing `line` of `file`, if any.
    pub fn enclosing_fn(&self, file: &str, line: u32) -> Option<usize> {
        let spans = self.span_index.get(file)?;
        spans
            .iter()
            .filter(|&&(s, e, _)| s <= line && line <= e)
            .min_by_key(|&&(s, e, _)| e - s)
            .map(|&(_, _, id)| id)
    }

    /// Is node `id` reachable from an entry point?
    pub fn is_reachable(&self, id: usize) -> bool {
        self.reachable[id]
    }

    /// The resolved callees of node `id`.
    pub fn callees(&self, id: usize) -> &[usize] {
        &self.edges[id]
    }

    /// Entry-point → ... → `id` call path (display names), present only
    /// for reachable nodes.
    pub fn trace(&self, id: usize) -> Option<Vec<String>> {
        if !self.reachable[id] {
            return None;
        }
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path.into_iter().map(|n| self.nodes[n].display()).collect())
    }

    /// Build the graph over `(ctx, toks, items)` triples — one per scanned
    /// source file, in scan order.
    pub fn build(files: &[(&FileCtx, &[Tok], &ItemTree)]) -> CallGraph {
        let mut g = CallGraph::default();
        // (file index, fn index) per node, for the edge pass.
        let mut origins: Vec<(usize, usize)> = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut workspace_types: BTreeSet<&str> = BTreeSet::new();

        for (fi, (ctx, _, items)) in files.iter().enumerate() {
            for ty in &items.types {
                workspace_types.insert(ty.as_str());
            }
            for (ii, f) in items.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let id = g.nodes.len();
                g.nodes.push(FnNode {
                    crate_dir: ctx.crate_dir.clone(),
                    file: ctx.rel_path.clone(),
                    name: f.name.clone(),
                    qualified: f.qualified(),
                    line: f.line,
                    end_line: f.end_line,
                });
                origins.push((fi, ii));
                by_name.entry(&f.name).or_default().push(id);
                if let Some(ty) = &f.self_type {
                    by_type_method.entry((ty, &f.name)).or_default().push(id);
                }
                if let Some(tr) = &f.trait_name {
                    by_type_method.entry((tr, &f.name)).or_default().push(id);
                }
                g.span_index
                    .entry(ctx.rel_path.clone())
                    .or_default()
                    .push((f.line, f.end_line, id));
            }
        }

        // Edge extraction per node.
        g.edges = vec![Vec::new(); g.nodes.len()];
        for (id, &(fi, ii)) in origins.iter().enumerate() {
            let (_, toks, items) = files[fi];
            let f = &items.fns[ii];
            let Some((body_start, body_end)) = f.body else { continue };
            let env = local_types(toks, f.sig_start, body_end, f.self_type.as_deref());
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            // Scan the body only: the signature holds no calls, and the
            // fn's own name token would otherwise edge to same-named
            // siblings across the workspace.
            for i in body_start..body_end.min(toks.len()) {
                let t = &toks[i];
                if t.kind != TokKind::Ident
                    || is_keyword(&t.text)
                    || i + 1 >= toks.len()
                    || !toks[i + 1].is_punct('(')
                {
                    continue;
                }
                let name = t.text.as_str();
                let after_dot = i >= 1 && toks[i - 1].is_punct('.');
                let after_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
                let resolved: Option<&Vec<usize>> = if after_dot {
                    // `recv.name(...)` — narrow via the local type env.
                    let recv_ty = if i >= 2 && toks[i - 2].is_ident("self") {
                        f.self_type.as_deref()
                    } else if i >= 2 && toks[i - 2].kind == TokKind::Ident {
                        env.get(toks[i - 2].text.as_str()).map(|s| s.as_str())
                    } else {
                        None
                    };
                    recv_ty.and_then(|ty| by_type_method.get(&(ty, name)))
                } else if after_path {
                    // `Base::name(...)` — narrow when `Base` is a type.
                    let base = if i >= 3 && toks[i - 3].kind == TokKind::Ident {
                        Some(toks[i - 3].text.as_str())
                    } else {
                        None
                    };
                    match base {
                        Some("Self") => {
                            f.self_type.as_deref().and_then(|ty| by_type_method.get(&(ty, name)))
                        }
                        Some(b) if workspace_types.contains(b) => by_type_method.get(&(b, name)),
                        _ => None,
                    }
                } else {
                    None
                };
                match resolved {
                    Some(ids) if !ids.is_empty() => targets.extend(ids.iter().copied()),
                    // Unknown receiver/base (or free call): every function
                    // of that name — the over-approximation that makes
                    // trait dispatch and generics safe.
                    _ => {
                        if let Some(ids) = by_name.get(name) {
                            targets.extend(ids.iter().copied());
                        }
                    }
                }
            }
            targets.remove(&id); // self-recursion adds nothing to reachability
            g.edge_count += targets.len();
            g.edges[id] = targets.into_iter().collect();
        }

        // Entry points and BFS.
        for (crate_dir, name) in ENTRY_POINTS {
            for (id, n) in g.nodes.iter().enumerate() {
                if n.crate_dir == *crate_dir && n.name == *name && n.qualified == *name {
                    g.entries.push(id);
                }
            }
        }
        g.reachable = vec![false; g.nodes.len()];
        g.parent = vec![None; g.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = g.entries.iter().copied().collect();
        for &e in &g.entries {
            g.reachable[e] = true;
        }
        while let Some(u) = queue.pop_front() {
            for i in 0..g.edges[u].len() {
                let v = g.edges[u][i];
                if !g.reachable[v] {
                    g.reachable[v] = true;
                    g.parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        g
    }
}

/// Local name → type bindings inside one function: typed parameters and
/// lets (`x: Type`), and constructor lets (`let x = Type::ctor(...)`).
/// The last binding for a name wins — flow-insensitive but adequate for
/// receiver narrowing.
fn local_types(
    toks: &[Tok],
    sig_start: usize,
    body_end: usize,
    _self_type: Option<&str>,
) -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    let end = body_end.min(toks.len());
    for i in sig_start..end {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `let [mut] name = Type::...` — checked before the keyword
        // guard, which would otherwise skip `let` itself.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < end && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 4 < end
                && toks[j].kind == TokKind::Ident
                && toks[j + 1].is_punct('=')
                && toks[j + 2].kind == TokKind::Ident
                && toks[j + 2].text.chars().next().is_some_and(|c| c.is_uppercase())
                && toks[j + 3].is_punct(':')
                && toks[j + 4].is_punct(':')
            {
                env.insert(toks[j].text.clone(), toks[j + 2].text.clone());
            }
            continue;
        }
        if is_keyword(&toks[i].text) {
            continue;
        }
        // `name : [&]* [mut|dyn|impl]* Type`
        if i + 2 < end && toks[i + 1].is_punct(':') && !toks[i + 2].is_punct(':') {
            let mut j = i + 2;
            while j < end
                && (toks[j].is_punct('&')
                    || toks[j].kind == TokKind::Lifetime
                    || toks[j].is_ident("mut")
                    || toks[j].is_ident("dyn")
                    || toks[j].is_ident("impl"))
            {
                j += 1;
            }
            if j < end && toks[j].kind == TokKind::Ident && !is_keyword(&toks[j].text) {
                env.insert(toks[i].text.clone(), toks[j].text.clone());
            }
            continue;
        }
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;
    use crate::lints::FileClass;

    fn ctx(crate_dir: &str, rel: &str) -> FileCtx {
        FileCtx { crate_dir: crate_dir.into(), class: FileClass::Lib, rel_path: rel.into() }
    }

    fn build(files: &[(&FileCtx, &str)]) -> (CallGraph, Vec<(crate::lexer::Lexed, ItemTree)>) {
        let parsed: Vec<_> = files
            .iter()
            .map(|(_, src)| {
                let l = lex(src);
                let items = parse_items(&l.toks);
                (l, items)
            })
            .collect();
        let triples: Vec<_> = files
            .iter()
            .zip(parsed.iter())
            .map(|((c, _), (l, it))| (*c, l.toks.as_slice(), it))
            .collect();
        (CallGraph::build(&triples), parsed)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap()
    }

    #[test]
    fn free_fn_calls_resolve_cross_crate() {
        let a = ctx("sim", "crates/sim/src/lib.rs");
        let b = ctx("chord", "crates/chord/src/lib.rs");
        let (g, _) = build(&[
            (&a, "pub fn run_batch() { helper(); }"),
            (&b, "pub fn helper() { leaf(); } pub fn leaf() {} pub fn orphan() {}"),
        ]);
        assert!(g.is_reachable(node(&g, "helper")));
        assert!(g.is_reachable(node(&g, "leaf")));
        assert!(!g.is_reachable(node(&g, "orphan")));
        let trace = g.trace(node(&g, "leaf")).unwrap();
        assert_eq!(trace, ["sim::run_batch", "chord::helper", "chord::leaf"]);
    }

    #[test]
    fn typed_receivers_narrow_method_edges() {
        let a = ctx("sim", "crates/sim/src/lib.rs");
        let b = ctx("chord", "crates/chord/src/lib.rs");
        let (g, _) = build(&[
            (&a, "pub fn run_batch(net: &Chord) { net.step(); }"),
            (
                &b,
                "pub struct Chord; pub struct Other;\n\
                 impl Chord { pub fn step(&self) {} }\n\
                 impl Other { pub fn step(&self) {} }",
            ),
        ]);
        let chord_step = g.nodes.iter().position(|n| n.qualified == "Chord::step").unwrap();
        let other_step = g.nodes.iter().position(|n| n.qualified == "Other::step").unwrap();
        assert!(g.is_reachable(chord_step));
        assert!(!g.is_reachable(other_step), "typed receiver must not union all methods");
    }

    #[test]
    fn trait_object_receivers_union_impls_and_defaults() {
        let a = ctx("sim", "crates/sim/src/lib.rs");
        let b = ctx("dht-core", "crates/dht-core/src/lib.rs");
        let (g, _) = build(&[
            (&a, "pub fn run_batch(o: &dyn Overlay) { o.route_stats(); }"),
            (
                &b,
                "pub trait Overlay {\n\
                     fn route(&self);\n\
                     fn route_stats(&self) { self.route(); }\n\
                 }\n\
                 pub struct Chord;\n\
                 impl Overlay for Chord { fn route(&self) {} fn route_stats(&self) {} }",
            ),
        ]);
        let default_m = g.nodes.iter().position(|n| n.qualified == "Overlay::route_stats").unwrap();
        let impl_m = g.nodes.iter().position(|n| n.qualified == "Chord::route_stats").unwrap();
        assert!(g.is_reachable(default_m), "trait default method reachable via dyn receiver");
        assert!(g.is_reachable(impl_m), "impl override reachable via dyn receiver");
        assert!(g.is_reachable(node(&g, "route")), "default body reaches trait siblings");
    }

    #[test]
    fn cfg_test_fns_are_not_indexed() {
        let a = ctx("sim", "crates/sim/src/lib.rs");
        let (g, _) = build(&[(
            &a,
            "pub fn run_batch() { helper(); }\n\
             pub fn helper() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { super::run_batch(); }\n}",
        )]);
        assert_eq!(
            g.nodes.iter().filter(|n| n.name == "helper").count(),
            1,
            "test double must not be indexed: {:?}",
            g.nodes
        );
    }

    #[test]
    fn enclosing_fn_lookup_uses_innermost_span() {
        let a = ctx("sim", "crates/sim/src/lib.rs");
        let (g, _) = build(&[(
            &a,
            "pub fn run_batch() {\n    helper();\n}\npub fn helper() {\n    leaf();\n}\npub fn leaf() {}\n",
        )]);
        let id = g.enclosing_fn("crates/sim/src/lib.rs", 5).unwrap();
        assert_eq!(g.nodes[id].name, "helper");
        let id = g.enclosing_fn("crates/sim/src/lib.rs", 7).unwrap();
        assert_eq!(g.nodes[id].name, "leaf");
        assert!(g.enclosing_fn("crates/sim/src/lib.rs", 8).is_none());
    }

    #[test]
    fn ctor_lets_bind_receiver_types() {
        let a = ctx("sim", "crates/sim/src/lib.rs");
        let b = ctx("chord", "crates/chord/src/lib.rs");
        let (g, _) = build(&[
            (&a, "pub fn run_batch() { let net = Chord::build(); net.step(); }"),
            (
                &b,
                "pub struct Chord; pub struct Other;\n\
                 impl Chord { pub fn build() -> Self { Chord } pub fn step(&self) {} }\n\
                 impl Other { pub fn step(&self) {} }",
            ),
        ]);
        assert!(g.is_reachable(g.nodes.iter().position(|n| n.qualified == "Chord::step").unwrap()));
        assert!(!g.is_reachable(g.nodes.iter().position(|n| n.qualified == "Other::step").unwrap()));
    }
}
