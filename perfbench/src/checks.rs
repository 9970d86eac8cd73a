//! Output-correctness checks. Every check counts as one attempt; the result
//! line reports attempts and failures, and their ratio is the run's
//! `error_rate`.

/// Tally of correctness checks made during one run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn new() -> Checks {
        Checks::default()
    }

    /// Records one check; a failure is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    /// Checks that a value which must not depend on timing or on the round
    /// came out the same as the first round's.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, first: &T, now: &T) {
        self.check(first == now, || {
            format!("{what} is not deterministic: {first:?} then {now:?}")
        });
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed checks over attempted checks.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_is_failed_over_attempted() {
        let mut checks = Checks::new();
        assert_eq!(checks.error_rate(), 0.0);
        checks.check(true, String::new);
        checks.same("x", &1, &1);
        checks.same("y", &1, &2);
        checks.check(false, || "expected".to_string());
        assert_eq!(checks.attempted(), 4);
        assert_eq!(checks.failed(), 2);
        assert_eq!(checks.error_rate(), 0.5);
    }
}
