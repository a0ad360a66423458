//! The checked-in figure rows a paper-program job must reproduce.
//!
//! `compile_heavy` and `exec_heavy` run the same session as the `tuned`
//! rows of `BENCH_compile.json` and the `cold` rows of
//! `BENCH_warmup.json` (paper inliner, `default_vm()`, synchronous
//! compilation). Matching those rows shows the benchmark measures the
//! sessions the figure harness reports. Both files are rendered one
//! workload per line, so a row is found by its name and its fields by
//! key; no general JSON reader is needed.

use std::path::Path;

/// Deterministic observables of one workload, as checked in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FigureRow {
    /// `BenchResult::answer_digest`, as 16 hex digits.
    pub answer: String,
    /// `BenchResult::compile_cycles`.
    pub compile_cycles: u64,
    /// `BenchResult::compilations`.
    pub compilations: u64,
    /// Trial-cache hits.
    pub trial_hits: u64,
    /// Trial-cache misses.
    pub trial_misses: u64,
    /// `BenchResult::warmup_cycles_within(0.05)`.
    pub warmup_cycles: u64,
    /// `BenchResult::steady_state`, rendered with one decimal.
    pub steady_state: String,
}

/// The value text of `"key":` in `row` after the first `after`.
fn field<'a>(row: &'a str, after: &str, key: &str) -> Option<&'a str> {
    let rest = &row[row.find(after)? + after.len()..];
    let pat = format!("\"{key}\":");
    let rest = &rest[rest.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

fn num(row: &str, after: &str, key: &str) -> Option<u64> {
    field(row, after, key)?.parse().ok()
}

fn row<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    text.lines().find(|l| l.trim_start().starts_with(prefix))
}

/// The two checked-in figure files.
pub struct Figures {
    compile: String,
    warmup: String,
}

impl Figures {
    /// Reads the figures under `root`.
    pub fn read(root: &Path) -> Result<Figures, String> {
        let read = |file: &str| {
            std::fs::read_to_string(root.join(file)).map_err(|e| format!("{file}: {e}"))
        };
        Ok(Figures {
            compile: read("BENCH_compile.json")?,
            warmup: read("BENCH_warmup.json")?,
        })
    }

    /// The rows of workload `name`.
    pub fn row(&self, name: &str) -> Result<FigureRow, String> {
        let c = row(&self.compile, &format!("{{\"name\":\"{name}\","))
            .ok_or_else(|| format!("BENCH_compile.json has no row for {name}"))?;
        let w = row(&self.warmup, &format!("{{\"workload\":\"{name}\","))
            .ok_or_else(|| format!("BENCH_warmup.json has no row for {name}"))?;
        let parsed = (|| {
            Some(FigureRow {
                answer: field(c, "\"tuned\":", "answer")?.to_string(),
                compile_cycles: num(c, "\"tuned\":", "cycles")?,
                compilations: num(c, "\"tuned\":", "compilations")?,
                trial_hits: num(c, "\"tuned\":", "trial_hits")?,
                trial_misses: num(c, "\"tuned\":", "trial_misses")?,
                warmup_cycles: num(w, "\"cold\":", "warmup_cycles")?,
                steady_state: field(w, "\"cold\":", "steady_state")?.to_string(),
            })
        })();
        parsed.ok_or_else(|| format!("malformed figure row for {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_read_after_their_section() {
        let line = r#"{"name":"x","baseline":{"cycles":1,"answer":"aa"},"tuned":{"cycles":2,"answer":"bb"}}"#;
        assert_eq!(field(line, "\"tuned\":", "cycles"), Some("2"));
        assert_eq!(field(line, "\"tuned\":", "answer"), Some("bb"));
        assert_eq!(field(line, "\"baseline\":", "answer"), Some("aa"));
        assert_eq!(field(line, "\"tuned\":", "missing"), None);
    }
}
