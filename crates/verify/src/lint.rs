//! Engine 3 — repo-specific lint rules.
//!
//! The rules themselves live in `scripts/lint.rs` (also compilable as a
//! standalone script with plain `rustc`); this module includes that
//! file and wraps it in a library API. See the rule docs there:
//! scheme-purity, no-wall-clock, no-unwrap-runtime,
//! serve-link-deadline, serve-scheduler-pure-time, shard-no-wall-clock.

#[allow(dead_code, clippy::unwrap_used)]
#[path = "../../../scripts/lint.rs"]
mod rules;

use std::path::Path;

pub use rules::{rule_names, run_lints, LintFinding};

/// Outcome of running all repo lint rules.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Rules that were evaluated.
    pub rules: Vec<&'static str>,
    /// Violations found (empty when clean).
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// Whether every rule passed.
    pub fn holds(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every rule against the repo rooted at `repo_root`.
pub fn lint_repo(repo_root: &Path) -> Result<LintReport, String> {
    let findings = run_lints(repo_root)?;
    Ok(LintReport {
        rules: rule_names(),
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Walks up from this crate's manifest dir to the workspace root.
    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    #[test]
    fn repo_is_lint_clean() {
        let report = lint_repo(&repo_root()).unwrap();
        assert!(
            report.holds(),
            "lint violations:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(
            report.rules,
            [
                "scheme-purity",
                "no-wall-clock",
                "no-unwrap-runtime",
                "serve-link-deadline",
                "serve-scheduler-pure-time",
                "shard-no-wall-clock",
            ]
        );
    }

    #[test]
    fn missing_root_is_an_error() {
        assert!(lint_repo(Path::new("/nonexistent/definitely-not-a-repo")).is_err());
    }
}
