//! Lock-order analysis: build the global lock-acquisition graph and fail
//! on cycles.
//!
//! Lock identity is the *declared binding name* — the identifier bound to a
//! `Mutex<…>`/`RwLock<…>` type annotation or a `Mutex::new(…)` initializer,
//! collected across every scanned file. Acquisitions are `.lock()` on any
//! receiver, and `.read()`/`.write()` only on receivers whose name is a
//! declared `RwLock` (plain `.read()`/`.write()` are ubiquitous IO methods).
//! The receiver's last path segment names the lock, so `self.state.completed
//! .lock()` and `thread_state.completed.lock()` are the same lock — which is
//! exactly the aliasing that makes runtime lock ordering hard to see.
//!
//! Guard lifetime is tracked statically: a guard bound with `let g = …`
//! lives until its enclosing brace closes or an explicit `drop(g)`; an
//! unbound temporary (`x.lock().…;`) dies at the end of its statement.
//! Acquiring lock B while A is held adds the edge A → B; a cycle in the
//! resulting graph means two code paths disagree about ordering and can
//! deadlock each other. Re-acquiring a lock already held is reported
//! immediately (self-deadlock for non-reentrant `std::sync` locks).

use std::collections::{BTreeMap, BTreeSet};

use crate::lint::Violation;
use crate::parser::{Function, SourceFile, Token};

use super::{binding_before, path_start, Binding, AUDIT};

const RULE: &str = "lock-order";

/// `name → "Mutex" | "RwLock"` for every binding declared with a lock type.
fn declared_locks(files: &[SourceFile]) -> BTreeMap<String, &'static str> {
    let mut locks = BTreeMap::new();
    for f in files {
        let t = &f.tokens;
        for i in 0..t.len() {
            let kind = match t[i].text.as_str() {
                "Mutex" => "Mutex",
                "RwLock" => "RwLock",
                _ => continue,
            };
            let next = t.get(i + 1).map(|x| x.text.as_str());
            let is_type = next == Some("<");
            let is_ctor = next == Some("::") && t.get(i + 2).is_some_and(|x| x.text == "new");
            if !is_type && !is_ctor {
                continue;
            }
            if let Some(name) = bound_name(t, i) {
                locks.insert(name, kind);
            }
        }
    }
    locks
}

/// Walk left from a lock type/constructor token over generic wrappers
/// (`Arc<`, `&`), path segments, and the type name itself to the `name:` or
/// `name =` that binds it. Bounded lookback keeps pathological lines cheap.
fn bound_name(t: &[Token], at: usize) -> Option<String> {
    let stop = at.saturating_sub(12);
    let mut j = at;
    while j > stop {
        j -= 1;
        match t[j].text.as_str() {
            "<" | "::" | "&" => {}
            ":" | "=" => {
                return t
                    .get(j.checked_sub(1)?)
                    .filter(|x| x.is_name())
                    .map(|x| x.text.clone());
            }
            _ if t[j].is_name() => {} // wrapper type like Arc / std path segment
            _ => return None,
        }
    }
    None
}

/// A lock currently held at some point of the static scan.
struct Held {
    lock: String,
    /// Brace depth (relative to the function body) at acquisition.
    depth: i64,
    /// Guard variable, when bound by name (releasable via `drop(name)`).
    guard: Option<String>,
    /// Unbound temporary: released at the end of the statement.
    temporary: bool,
}

type Edges = BTreeMap<(String, String), (usize, usize)>;

pub(super) fn analyze(files: &[SourceFile], out: &mut Vec<Violation>) {
    let locks = declared_locks(files);
    // (held, acquired) → first witness (file index, line).
    let mut edges: Edges = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        if !AUDIT.in_scope(RULE, &f.rel) {
            continue;
        }
        for func in &f.functions {
            scan_function(f, fi, func, &locks, &mut edges, out);
        }
    }
    report_cycles(files, &edges, out);
}

fn is_acquisition(t: &[Token], i: usize, locks: &BTreeMap<String, &'static str>) -> bool {
    if t[i].text != "." || i == 0 || !t[i - 1].is_name() {
        return false;
    }
    let method = match t.get(i + 1) {
        Some(m) => m.text.as_str(),
        None => return false,
    };
    if t.get(i + 2).is_none_or(|x| x.text != "(") {
        return false;
    }
    match method {
        "lock" => t.get(i + 3).is_some_and(|x| x.text == ")"),
        "read" | "write" => locks.get(&t[i - 1].text) == Some(&"RwLock"),
        _ => false,
    }
}

fn scan_function(
    file: &SourceFile,
    fi: usize,
    func: &Function,
    locks: &BTreeMap<String, &'static str>,
    edges: &mut Edges,
    out: &mut Vec<Violation>,
) {
    let t = &file.tokens;
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i64;
    for i in func.body.clone() {
        match t[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            ";" => held.retain(|h| !(h.temporary && h.depth == depth)),
            "drop" if t.get(i + 1).is_some_and(|x| x.text == "(") => {
                if let Some(g) = t.get(i + 2).filter(|x| x.is_name()) {
                    held.retain(|h| h.guard.as_deref() != Some(g.text.as_str()));
                }
            }
            "." if is_acquisition(t, i, locks) => {
                let lock = t[i - 1].text.clone();
                let line = t[i + 1].line;
                for h in &held {
                    if h.lock == lock {
                        AUDIT.finding(
                            file,
                            RULE,
                            line,
                            format!(
                                "`{lock}` acquired while a guard for it is still live in \
                                 `{}` — std::sync locks are not reentrant (self-deadlock)",
                                func.name
                            ),
                            out,
                        );
                    } else {
                        edges.entry((h.lock.clone(), lock.clone())).or_insert((fi, line));
                    }
                }
                let (guard, temporary) = match binding_before(t, path_start(t, i - 1)) {
                    Binding::Named(name) => (Some(name), false),
                    // `let _ = x.lock()` drops the guard immediately.
                    Binding::Discard | Binding::Expression => (None, true),
                };
                held.push(Held { lock, depth, guard, temporary });
            }
            _ => {}
        }
    }
}

fn report_cycles(files: &[SourceFile], edges: &Edges, out: &mut Vec<Violation>) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default();
    }
    // Colors: 0 unvisited, 1 on the current DFS path, 2 done.
    let mut color: BTreeMap<&str, u8> = adj.keys().map(|&n| (n, 0u8)).collect();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for n in nodes {
        if color[n] == 0 {
            let mut path = Vec::new();
            dfs(n, &adj, &mut color, &mut path, files, edges, &mut reported, out);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    color: &mut BTreeMap<&'a str, u8>,
    path: &mut Vec<&'a str>,
    files: &[SourceFile],
    edges: &Edges,
    reported: &mut BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    color.insert(node, 1);
    path.push(node);
    for &next in &adj[node] {
        match color[next] {
            0 => dfs(next, adj, color, path, files, edges, reported, out),
            1 => {
                let pos = path.iter().position(|&n| n == next).unwrap_or(0);
                let cycle: Vec<&str> = path[pos..].to_vec();
                // Canonical form (rotated to the smallest element) so the
                // same cycle discovered from different entry points reports
                // once.
                let min = cycle.iter().enumerate().min_by_key(|(_, n)| **n).map_or(0, |(k, _)| k);
                let canon: Vec<&str> =
                    cycle[min..].iter().chain(cycle[..min].iter()).copied().collect();
                if reported.insert(canon.join("->")) {
                    let &(fi, line) = edges
                        .get(&(node.to_string(), next.to_string()))
                        .unwrap_or(&(0, 1));
                    let chain = canon.join(" -> ");
                    AUDIT.finding(
                        &files[fi],
                        RULE,
                        line,
                        format!(
                            "lock acquisition cycle {chain} -> {} — two paths order these \
                             locks inconsistently and can deadlock each other",
                            canon[0]
                        ),
                        out,
                    );
                }
            }
            _ => {}
        }
    }
    path.pop();
    color.insert(node, 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn audit(src: &str) -> Vec<Violation> {
        let files = vec![parse_source("crates/core/src/a.rs", src)];
        let mut out = Vec::new();
        analyze(&files, &mut out);
        out
    }

    const DECLS: &str = "struct S { m1: Mutex<u32>, m2: Mutex<u32>, rw: RwLock<u32> }\n";

    #[test]
    fn consistent_nesting_is_clean() {
        let src = format!(
            "{DECLS}impl S {{\n fn a(&self) {{ let g1 = self.m1.lock(); let g2 = self.m2.lock(); }}\n \
             fn b(&self) {{ let g1 = self.m1.lock(); let g2 = self.m2.lock(); }}\n}}"
        );
        assert!(audit(&src).is_empty());
    }

    #[test]
    fn inconsistent_order_is_a_cycle() {
        let src = format!(
            "{DECLS}impl S {{\n fn a(&self) {{ let g1 = self.m1.lock(); let g2 = self.m2.lock(); }}\n \
             fn b(&self) {{ let g2 = self.m2.lock(); let g1 = self.m1.lock(); }}\n}}"
        );
        let v = audit(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("m1 -> m2"), "{}", v[0].message);
    }

    #[test]
    fn sequential_acquisition_makes_no_edge() {
        // Guard dropped (block closed / explicit drop / temporary) before
        // the second lock: no nesting, no edge, no cycle.
        let src = format!(
            "{DECLS}impl S {{\n fn a(&self) {{ {{ let g = self.m1.lock(); }} let h = self.m2.lock(); }}\n \
             fn b(&self) {{ let g = self.m2.lock(); drop(g); let h = self.m1.lock(); }}\n \
             fn c(&self) {{ self.m2.lock().x(); let h = self.m1.lock(); }}\n}}"
        );
        assert!(audit(&src).is_empty());
    }

    #[test]
    fn reacquiring_a_held_lock_is_flagged() {
        let src = format!("{DECLS}impl S {{ fn a(&self) {{ let g = self.m1.lock(); let h = self.m1.lock(); }} }}");
        let v = audit(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("self-deadlock"));
    }

    #[test]
    fn rwlock_read_write_only_on_declared_locks() {
        let src = format!(
            "{DECLS}impl S {{ fn a(&self, f: &mut File) {{ let g = self.rw.read(); f.read(); f.write(); }} }}"
        );
        // f.read()/f.write() are IO, not lock acquisitions: no edges at all.
        assert!(audit(&src).is_empty());
        let locks = declared_locks(&[parse_source("crates/core/src/a.rs", &src)]);
        assert_eq!(locks.get("rw"), Some(&"RwLock"));
        assert_eq!(locks.get("m1"), Some(&"Mutex"));
    }

    #[test]
    fn lock_identity_spans_aliasing_receivers() {
        // Same field reached through different roots is the same lock.
        let src = format!(
            "{DECLS}fn a(s: &S, t: &S) {{ let g = s.m1.lock(); let h = t.m2.lock(); }}\n\
             fn b(s: &S) {{ let g = s.m2.lock(); let h = s.m1.lock(); }}"
        );
        let v = audit(&src);
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
