//! Per-function control-flow graphs over the token stream.
//!
//! The audit pass (DESIGN.md §6f) reasons about token *adjacency*; the flow
//! pass needs *paths*. This module lifts a [`Function`]'s token range into a
//! graph of basic blocks connected by the structural control flow the token
//! stream exposes: `if`/`else if`/`else` chains, `match` arms, the three
//! loop forms (with `break`/`continue` edges), explicit `return`s, and the
//! error edge every `?` raises. Two virtual exit blocks terminate the
//! graph — [`Cfg::normal_exit`] for fall-through and non-`Err` returns,
//! [`Cfg::error_exit`] for `?` propagation and `return Err(…)` — so
//! analyses can treat success paths and error paths differently (a dropped
//! `AtomicFile` on an error path *is* the abort; on a success path it is a
//! lost commit).
//!
//! Construction is a single linear walk, not a grammar. The deliberate
//! approximations (all documented in DESIGN.md §6j):
//!
//! * braces that do not belong to a recognized construct (plain scope
//!   blocks, closure bodies, struct literals) are walked *through*: their
//!   interior joins the enclosing block sequence, so `return`/`?` inside a
//!   closure is modeled as exiting the enclosing function (conservative:
//!   more exit paths, never fewer);
//! * `break`/`continue` bind to the innermost loop — labeled loops are not
//!   resolved;
//! * `match` arm patterns (including `if` guards) are copied verbatim into
//!   the arm's entry block without interpretation.

use crate::parser::{Function, Token};

/// One basic block: the indices (into the file's token stream) of the
/// tokens it executes, in order, plus its successor blocks.
#[derive(Debug, Default)]
pub struct Block {
    pub tokens: Vec<usize>,
    pub succs: Vec<usize>,
}

/// A function's control-flow graph. Block 0 is the entry; the two virtual
/// exits carry no tokens and have no successors.
#[derive(Debug)]
pub struct Cfg {
    pub blocks: Vec<Block>,
    /// Fall-through and non-`Err` `return` paths end here.
    pub normal_exit: usize,
    /// `?` propagation and `return Err(…)` paths end here.
    pub error_exit: usize,
}

/// Control-flow keywords that head a construct the builder interprets.
fn is_loop_kw(t: &str) -> bool {
    t == "loop" || t == "while" || t == "for"
}

struct Builder<'t> {
    t: &'t [Token],
    blocks: Vec<Block>,
    cur: usize,
    normal_exit: usize,
    error_exit: usize,
    /// Innermost-last stack of `(head, after)` loop targets.
    loops: Vec<(usize, usize)>,
}

/// Build the CFG for one function.
pub fn build(tokens: &[Token], func: &Function) -> Cfg {
    let mut b = Builder {
        t: tokens,
        // 0 = entry, 1 = normal exit, 2 = error exit.
        blocks: vec![Block::default(), Block::default(), Block::default()],
        cur: 0,
        normal_exit: 1,
        error_exit: 2,
        loops: Vec::new(),
    };
    b.walk(func.body.start, func.body.end);
    b.edge(b.cur, b.normal_exit);
    Cfg { blocks: b.blocks, normal_exit: b.normal_exit, error_exit: b.error_exit }
}

impl<'t> Builder<'t> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn push(&mut self, i: usize) {
        let cur = self.cur;
        self.blocks[cur].tokens.push(i);
    }

    fn text(&self, i: usize) -> &str {
        self.t.get(i).map(|x| x.text.as_str()).unwrap_or("")
    }

    /// Index just past the `}` matching the `{` at `open` (clamped to `hi`).
    fn close_of(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < hi {
            match self.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Process tokens `[lo, hi)` as a statement sequence growing `self.cur`.
    fn walk(&mut self, lo: usize, hi: usize) {
        let mut i = lo;
        while i < hi {
            match self.text(i) {
                "if" => i = self.walk_if(i, hi),
                "match" => i = self.walk_match(i, hi),
                t if is_loop_kw(t) => i = self.walk_loop(i, hi),
                "return" => i = self.walk_return(i, hi),
                "break" | "continue" => i = self.walk_jump(i, hi),
                "?" => {
                    self.push(i);
                    // The error edge leaves *after* the tokens already in
                    // this block (the fallible call itself); the success
                    // path continues in a fresh block.
                    self.edge(self.cur, self.error_exit);
                    let next = self.new_block();
                    self.edge(self.cur, next);
                    self.cur = next;
                    i += 1;
                }
                "{" => {
                    // Plain block / closure body / struct literal: walk the
                    // interior inline so nested control flow is still seen.
                    let close = self.close_of(i, hi);
                    self.walk(i + 1, close);
                    i = close + 1;
                }
                _ => {
                    self.push(i);
                    i += 1;
                }
            }
        }
    }

    /// Tokens from `i` until the body `{` at paren/bracket depth 0 go into
    /// the current block (the condition is evaluated before the branch).
    /// Returns the index of the `{`, or `hi` if none is found.
    fn header_end(&mut self, i: usize, hi: usize) -> usize {
        let mut nest = 0i64;
        let mut j = i;
        while j < hi {
            match self.text(j) {
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                "{" if nest == 0 => return j,
                "?" => {
                    // A fallible call inside a condition still raises.
                    self.push(j);
                    self.edge(self.cur, self.error_exit);
                    let next = self.new_block();
                    self.edge(self.cur, next);
                    self.cur = next;
                    j += 1;
                    continue;
                }
                _ => {}
            }
            self.push(j);
            j += 1;
        }
        hi
    }

    fn walk_if(&mut self, i: usize, hi: usize) -> usize {
        let open = self.header_end(i, hi);
        if open >= hi {
            return hi;
        }
        let cond = self.cur;
        let join = self.new_block();

        let then_entry = self.new_block();
        self.edge(cond, then_entry);
        self.cur = then_entry;
        let close = self.close_of(open, hi);
        self.walk(open + 1, close);
        self.edge(self.cur, join);

        let mut next = close + 1;
        if self.text(next) == "else" {
            let else_entry = self.new_block();
            self.edge(cond, else_entry);
            self.cur = else_entry;
            if self.text(next + 1) == "if" {
                next = self.walk_if(next + 1, hi);
            } else if self.text(next + 1) == "{" {
                let c2 = self.close_of(next + 1, hi);
                self.walk(next + 2, c2);
                next = c2 + 1;
            } else {
                next += 1; // malformed; stay linear
            }
            self.edge(self.cur, join);
        } else {
            // No else: the condition can fall through.
            self.edge(cond, join);
        }
        self.cur = join;
        next
    }

    fn walk_match(&mut self, i: usize, hi: usize) -> usize {
        let open = self.header_end(i, hi);
        if open >= hi {
            return hi;
        }
        let scrutinee = self.cur;
        let close = self.close_of(open, hi);
        let join = self.new_block();
        let mut k = open + 1;
        let mut arms = 0usize;
        while k < close {
            // Pattern (and any `if` guard): verbatim until `=>` at depth 0.
            let arm = self.new_block();
            self.edge(scrutinee, arm);
            self.cur = arm;
            let mut nest = 0i64;
            while k < close {
                match self.text(k) {
                    "(" | "[" | "{" => nest += 1,
                    ")" | "]" | "}" => nest -= 1,
                    "=>" if nest == 0 => break,
                    _ => {}
                }
                self.push(k);
                k += 1;
            }
            if k >= close {
                self.edge(self.cur, join);
                break;
            }
            k += 1; // past `=>`
            if self.text(k) == "{" {
                let c2 = self.close_of(k, close);
                self.walk(k + 1, c2);
                k = c2 + 1;
                if self.text(k) == "," {
                    k += 1;
                }
            } else {
                // Expression arm: until `,` at depth 0 or the match close.
                let mut nest = 0i64;
                let mut end = k;
                while end < close {
                    match self.text(end) {
                        "(" | "[" | "{" => nest += 1,
                        ")" | "]" | "}" => nest -= 1,
                        "," if nest == 0 => break,
                        _ => {}
                    }
                    end += 1;
                }
                self.walk(k, end);
                k = end + 1;
            }
            self.edge(self.cur, join);
            arms += 1;
        }
        if arms == 0 {
            self.edge(scrutinee, join);
        }
        self.cur = join;
        close + 1
    }

    fn walk_loop(&mut self, i: usize, hi: usize) -> usize {
        let is_infinite = self.text(i) == "loop";
        let open = self.header_end(i, hi);
        if open >= hi {
            return hi;
        }
        let head = self.new_block();
        self.edge(self.cur, head);
        let after = self.new_block();
        if !is_infinite {
            // `while`/`for` can exit at the test; bare `loop` only breaks.
            self.edge(head, after);
        }
        let body = self.new_block();
        self.edge(head, body);
        self.loops.push((head, after));
        self.cur = body;
        let close = self.close_of(open, hi);
        self.walk(open + 1, close);
        self.edge(self.cur, head);
        self.loops.pop();
        self.cur = after;
        close + 1
    }

    fn walk_return(&mut self, i: usize, hi: usize) -> usize {
        // `return Err(…)` is an error exit; anything else is normal.
        let exit = if self.text(i + 1) == "Err" { self.error_exit } else { self.normal_exit };
        let mut j = i;
        let mut nest = 0i64;
        while j < hi {
            match self.text(j) {
                "(" | "[" | "{" => nest += 1,
                ")" | "]" | "}" => nest -= 1,
                ";" if nest <= 0 => break,
                _ => {}
            }
            self.push(j);
            j += 1;
        }
        self.edge(self.cur, exit);
        self.cur = self.new_block(); // unreachable continuation
        j + 1
    }

    fn walk_jump(&mut self, i: usize, hi: usize) -> usize {
        let target = match (self.text(i), self.loops.last()) {
            ("break", Some(&(_, after))) => after,
            ("continue", Some(&(head, _))) => head,
            // A stray jump outside any loop: treat as function exit.
            _ => self.normal_exit,
        };
        self.push(i);
        let mut j = i + 1;
        while j < hi && self.text(j) != ";" && self.text(j) != "}" {
            self.push(j);
            j += 1;
        }
        self.edge(self.cur, target);
        self.cur = self.new_block(); // unreachable continuation
        if self.text(j) == ";" {
            j + 1
        } else {
            j
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::sanitize;
    use crate::parser::{functions, tokenize};

    fn cfg_of(src: &str) -> (Vec<Token>, Cfg) {
        let tokens = tokenize(&sanitize(src));
        let fns = functions(&tokens);
        assert_eq!(fns.len(), 1, "test source must hold exactly one fn");
        let cfg = build(&tokens, &fns[0]);
        (tokens, cfg)
    }

    /// Every path from `from` by DFS; true if any reaches `to` without
    /// passing through a block satisfying `barrier`.
    fn reaches_avoiding(cfg: &Cfg, from: usize, to: usize, barrier: &dyn Fn(usize) -> bool) -> bool {
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if b == to {
                return true;
            }
            if seen[b] || barrier(b) {
                continue;
            }
            seen[b] = true;
            stack.extend(cfg.blocks[b].succs.iter().copied());
        }
        false
    }

    fn block_with(tokens: &[Token], cfg: &Cfg, text: &str) -> usize {
        cfg.blocks
            .iter()
            .position(|b| b.tokens.iter().any(|&i| tokens[i].text == text))
            .unwrap_or_else(|| panic!("no block contains `{text}`"))
    }

    #[test]
    fn straight_line_reaches_normal_exit() {
        let (_, cfg) = cfg_of("fn f() { let a = 1; let b = a; }");
        assert!(reaches_avoiding(&cfg, 0, cfg.normal_exit, &|_| false));
        assert!(!reaches_avoiding(&cfg, 0, cfg.error_exit, &|_| false));
    }

    #[test]
    fn question_mark_raises_an_error_edge() {
        let (t, cfg) = cfg_of("fn f() -> Result<()> { helper()?; tail(); Ok(()) }");
        assert!(reaches_avoiding(&cfg, 0, cfg.error_exit, &|_| false));
        // The error edge leaves before `tail` runs.
        let tail = block_with(&t, &cfg, "tail");
        assert!(!reaches_avoiding(&cfg, tail, cfg.error_exit, &|_| false));
    }

    #[test]
    fn if_without_else_can_skip_the_then_block() {
        let (t, cfg) = cfg_of("fn f(c: bool) { if c { then_work(); } after(); }");
        let then_b = block_with(&t, &cfg, "then_work");
        let after = block_with(&t, &cfg, "after");
        // A path reaches `after` while avoiding the then-block entirely.
        assert!(reaches_avoiding(&cfg, 0, after, &|b| b == then_b));
    }

    #[test]
    fn else_branches_both_join() {
        let (t, cfg) = cfg_of("fn f(c: bool) { if c { a(); } else { b(); } after(); }");
        let a = block_with(&t, &cfg, "a");
        let b = block_with(&t, &cfg, "b");
        let after = block_with(&t, &cfg, "after");
        assert!(reaches_avoiding(&cfg, 0, after, &|x| x == a));
        assert!(reaches_avoiding(&cfg, 0, after, &|x| x == b));
        // But not avoiding both: one branch must run.
        assert!(!reaches_avoiding(&cfg, 0, after, &|x| x == a || x == b));
    }

    #[test]
    fn match_arms_fan_out_and_join() {
        let (t, cfg) =
            cfg_of("fn f(x: u32) { match x { 0 => zero(), Some(y) if y > 1 => big(), _ => other(), } after(); }");
        let zero = block_with(&t, &cfg, "zero");
        let after = block_with(&t, &cfg, "after");
        assert!(reaches_avoiding(&cfg, 0, after, &|b| b == zero));
        assert!(reaches_avoiding(&cfg, zero, after, &|_| false));
    }

    #[test]
    fn early_return_skips_the_tail() {
        let (t, cfg) = cfg_of("fn f(c: bool) -> Result<()> { if c { return Ok(()); } tail(); Ok(()) }");
        let tail = block_with(&t, &cfg, "tail");
        // Some path exits normally without ever executing `tail`.
        assert!(reaches_avoiding(&cfg, 0, cfg.normal_exit, &|b| b == tail));
    }

    #[test]
    fn return_err_exits_on_the_error_edge() {
        let (t, cfg) =
            cfg_of("fn f(c: bool) -> Result<()> { if c { return Err(oops()); } tail(); Ok(()) }");
        let tail = block_with(&t, &cfg, "tail");
        // The error exit is reachable, but only via the return-Err path —
        // the normal exit still requires running the tail.
        assert!(reaches_avoiding(&cfg, 0, cfg.error_exit, &|b| b == tail));
        assert!(!reaches_avoiding(&cfg, 0, cfg.normal_exit, &|b| b == tail));
    }

    #[test]
    fn loop_bodies_cycle_and_break_exits() {
        let (t, cfg) = cfg_of("fn f() { loop { work(); if done() { break; } } after(); }");
        let work = block_with(&t, &cfg, "work");
        let after = block_with(&t, &cfg, "after");
        // The body can repeat (work reaches itself) and break reaches after.
        assert!(reaches_avoiding(&cfg, work, after, &|_| false));
        assert!(cfg.blocks[work].succs.iter().any(|&s| reaches_avoiding(&cfg, s, work, &|_| false)));
        // A bare `loop` cannot fall through without the break.
        let brk = block_with(&t, &cfg, "break");
        assert!(!reaches_avoiding(&cfg, 0, after, &|b| b == brk));
    }

    #[test]
    fn while_can_skip_its_body() {
        let (t, cfg) = cfg_of("fn f() { while cond() { body(); } after(); }");
        let body = block_with(&t, &cfg, "body");
        let after = block_with(&t, &cfg, "after");
        assert!(reaches_avoiding(&cfg, 0, after, &|b| b == body));
    }

    #[test]
    fn closure_braces_stay_inline() {
        let (t, cfg) = cfg_of("fn f() { run(|| { inner()?; }); after(); }");
        // The `?` inside the closure conservatively raises at function level.
        assert!(reaches_avoiding(&cfg, 0, cfg.error_exit, &|_| false));
        let after = block_with(&t, &cfg, "after");
        assert!(reaches_avoiding(&cfg, 0, after, &|_| false));
    }
}
