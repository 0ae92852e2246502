//! The token-level rules R1, R3 and R4. (R2, the lock-order analysis,
//! lives in [`crate::lockgraph`] because it is a cross-file pass.)
//!
//! Rule catalog:
//!
//! * **R1 — virtual-time determinism.** The simulator is driven by a
//!   virtual clock; wall-clock reads, sleeps and OS randomness anywhere
//!   outside the benchmark crate would break the bit-identical-trace
//!   contract (DESIGN.md §10). Forbidden: `Instant::now`, `SystemTime`,
//!   `thread::sleep`, `rand::thread_rng`. Also forbidden: `thread_local!`.
//!   Actors are coroutines that resume on whichever thread drives the
//!   next slice (DESIGN.md §5, "Coroutine conductor"), so thread-local
//!   state read before a yield and again after it may belong to two
//!   different threads.
//! * **R3 — atomic-ordering justification.** Every relaxed/acquire/
//!   release ordering must carry an `// ordering:` comment (same line or
//!   the two lines above) explaining why that ordering suffices. SeqCst
//!   is exempt: it is the conservative default and needs no defense.
//! * **R4 — lock-poisoning policy.** `.lock()/.read()/.write()` results
//!   must not be `.unwrap()`ed in non-test code. parking_lot-style locks
//!   don't poison (nothing to unwrap); for `std::sync` locks, recover the
//!   guard (`unwrap_or_else(PoisonError::into_inner)`) or `.expect()`
//!   with a message naming the invariant that makes poisoning fatal.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::model::FileModel;

/// A lexed file plus its workspace-relative path and raw source lines.
pub struct SourceFile {
    pub path: String,
    pub model: FileModel,
    pub lines: Vec<String>,
}

impl SourceFile {
    pub fn new(path: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            model: FileModel::build(crate::lexer::lex(src)),
            lines: src.lines().map(str::to_string).collect(),
        }
    }

    pub fn context(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    pub(crate) fn diag(
        &self,
        rule: &'static str,
        line: usize,
        col: usize,
        end_col: usize,
        message: String,
        edge: Option<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            path: self.path.clone(),
            line,
            col,
            end_col,
            message,
            context: self.context(line),
            edge,
        }
    }

    /// Is token `i` the ident `name`?
    fn is_ident(&self, i: usize, name: &str) -> bool {
        matches!(
            self.model.lexed.tokens.get(i).map(|t| &t.kind),
            Some(TokenKind::Ident(s)) if s == name
        )
    }

    /// Is `i` the start of a `::` path separator?
    fn is_path_sep(&self, i: usize) -> bool {
        let toks = &self.model.lexed.tokens;
        toks.get(i).map(|t| &t.kind) == Some(&TokenKind::Punct(':'))
            && toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct(':'))
    }
}

/// R1: virtual-time determinism. Applies to every scanned file; path
/// exemptions (the benchmark crate measures real wall-clock on purpose)
/// come from `lint.toml` `exempt = ["R1:crates/bench/"]`.
pub fn r1(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = &file.model.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        const CLOCK: &str = "simulated timing must come from the virtual clock \
                             (bypassd_sim::time) or the seeded Rng so runs stay reproducible";
        let hit = match name.as_str() {
            "Instant" if file.is_path_sep(i + 1) && file.is_ident(i + 3, "now") => {
                Some(("`Instant::now` reads the wall clock", CLOCK))
            }
            "SystemTime" => Some(("`SystemTime` reads the wall clock", CLOCK)),
            "thread" if file.is_path_sep(i + 1) && file.is_ident(i + 3, "sleep") => {
                Some(("`thread::sleep` blocks on real time", CLOCK))
            }
            "thread_rng" => Some((
                "`thread_rng` is OS-seeded, nondeterministic randomness",
                CLOCK,
            )),
            "thread_local" if toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('!')) => {
                Some((
                    "`thread_local!` state does not follow an actor across a yield",
                    "an actor coroutine may resume on another thread, so keep per-actor \
                     state in the actor or in shared simulation state",
                ))
            }
            _ => None,
        };
        if let Some((why, fix)) = hit {
            out.push(file.diag(
                "R1",
                t.line,
                t.col,
                t.col + t.width(),
                format!("{why}; {fix}"),
                None,
            ));
        }
    }
    out
}

const JUSTIFIED_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// R3: atomic-ordering justification. Library code only (test regions are
/// skipped); the justification comment must contain `ordering:` on the
/// use's line or one of the two lines above it.
pub fn r3(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = &file.model.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !file.is_ident(i, "Ordering") || !file.is_path_sep(i + 1) {
            continue;
        }
        let Some(TokenKind::Ident(ord)) = toks.get(i + 3).map(|t| &t.kind) else {
            continue;
        };
        if !JUSTIFIED_ORDERINGS.contains(&ord.as_str()) || file.model.in_test_code(i) {
            continue;
        }
        let justified = (t.line.saturating_sub(2)..=t.line)
            .any(|l| file.model.lexed.comment_on_line_contains(l, "ordering:"));
        if !justified {
            out.push(file.diag(
                "R3",
                t.line,
                t.col,
                t.col + t.width(),
                format!(
                    "`Ordering::{ord}` without an `// ordering:` justification comment \
                     (same line or the two lines above); state why this ordering is \
                     sufficient, or use SeqCst"
                ),
                None,
            ));
        }
    }
    out
}

/// R4: no `.unwrap()` on lock results in non-test code.
pub fn r4(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = &file.model.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let TokenKind::Ident(m) = &toks[i].kind else {
            continue;
        };
        if !matches!(m.as_str(), "lock" | "read" | "write") {
            continue;
        }
        // `.lock()` with zero args …
        let dotted = i > 0 && toks[i - 1].kind == TokenKind::Punct('.');
        let zero_args = toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Open('('))
            && toks.get(i + 2).map(|t| &t.kind) == Some(&TokenKind::Close(')'));
        if !dotted || !zero_args {
            continue;
        }
        // … immediately followed by `.unwrap()`.
        let unwrapped = toks.get(i + 3).map(|t| &t.kind) == Some(&TokenKind::Punct('.'))
            && file.is_ident(i + 4, "unwrap");
        if unwrapped && !file.model.in_test_code(i) {
            out.push(file.diag(
                "R4",
                toks[i].line,
                toks[i].col,
                toks[i].col + toks[i].width(),
                format!(
                    "`.{m}().unwrap()` on a lock result in non-test code; recover the \
                     guard with `unwrap_or_else(PoisonError::into_inner)` or `.expect()` \
                     naming the invariant that makes poisoning fatal"
                ),
                None,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rule: fn(&SourceFile) -> Vec<Diagnostic>, src: &str) -> Vec<Diagnostic> {
        rule(&SourceFile::new("crates/x/src/lib.rs", src))
    }

    #[test]
    fn r1_flags_wall_clock_and_randomness() {
        let src = "fn f() { let t = Instant::now(); thread::sleep(d); let r = thread_rng(); }";
        let hits = run(r1, src);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|d| d.rule == "R1"));
    }

    #[test]
    fn r1_flags_thread_local_macro_only() {
        let hits = run(r1, "thread_local! { static X: u8 = 0; }");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("thread_local!"));
        // The `LocalKey` type and a same-named fn are not the macro.
        assert!(run(
            r1,
            "fn f(k: &'static std::thread::LocalKey<u8>) { thread_local(); }"
        )
        .is_empty());
    }

    #[test]
    fn r1_ignores_strings_comments_and_unrelated_idents() {
        let src = r#"
            // Instant::now is discussed here
            fn f() { let s = "Instant::now"; instant(); now(); }
        "#;
        assert!(run(r1, src).is_empty());
    }

    #[test]
    fn r3_requires_ordering_comment() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        assert_eq!(run(r3, bad).len(), 1);
        let good = "fn f(a: &AtomicU64) {\n    // ordering: counter, no sync needed\n    a.load(Ordering::Relaxed);\n}";
        assert!(run(r3, good).is_empty());
        let seqcst = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }";
        assert!(run(r3, seqcst).is_empty());
    }

    #[test]
    fn r3_skips_test_modules_and_cmp_ordering() {
        let test_mod = "#[cfg(test)] mod t { fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); } }";
        assert!(run(r3, test_mod).is_empty());
        let cmp = "fn f() -> Ordering { Ordering::Less }";
        assert!(run(r3, cmp).is_empty());
    }

    #[test]
    fn r4_flags_lock_unwrap_outside_tests() {
        let bad = "fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }";
        assert_eq!(run(r4, bad).len(), 1);
        let test_ok = "#[cfg(test)] mod t { fn f(m: &Mutex<u32>) { m.lock().unwrap(); } }";
        assert!(run(r4, test_ok).is_empty());
        // io::Read::read with args is not a lock acquisition.
        let io = "fn f(r: &mut impl Read) { r.read(&mut buf).unwrap(); }";
        assert!(run(r4, io).is_empty());
    }
}
