//! Process-wide thread and fd counts from `/proc/self`, and the one leak
//! check built on them: take a [`Baseline`] before a run and
//! [`Baseline::settle`] after it. The counts cover the whole process, so
//! a leak-checked test needs its test binary to itself.

use std::time::{Duration, Instant};

/// Live threads of this process; `None` on hosts without `/proc`.
pub fn live_threads() -> Option<usize> {
    count("/proc/self/task")
}

fn count(dir: &str) -> Option<usize> {
    std::fs::read_dir(dir).ok().map(|d| d.count())
}

/// Live threads and open fds (the handle that counts them included,
/// the same bias in every call).
fn counts() -> Option<(usize, usize)> {
    Some((live_threads()?, count("/proc/self/fd")?))
}

/// Live threads and open fds a run must return to; `None` without `/proc`.
#[derive(Debug, Clone, Copy)]
pub struct Baseline(Option<(usize, usize)>);

impl Baseline {
    /// Counts threads and fds now. The [`crate::global`] pool is forced
    /// into existence first: its workers live as long as the process, so
    /// a run that merely first touched it has not leaked them.
    pub fn take() -> Baseline {
        let _ = crate::global();
        Baseline(counts())
    }

    /// Polls until live threads and open fds are no higher than the
    /// baseline (thread exit and socket teardown finish asynchronously),
    /// or fails with both counts once `timeout` has passed. On hosts
    /// without `/proc` it returns `Ok` and says on stderr that it skipped.
    pub fn settle(&self, timeout: Duration) -> Result<(), String> {
        let Some((threads, fds)) = self.0 else {
            eprintln!("leak check skipped: this host has no /proc");
            return Ok(());
        };
        let give_up = Instant::now() + timeout;
        loop {
            let (t, f) = counts().unwrap_or((threads, fds));
            if t <= threads && f <= fds {
                return Ok(());
            }
            if Instant::now() >= give_up {
                return Err(format!("leak: threads {threads} -> {t}, fds {fds} -> {f}"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_compares_against_the_baseline() {
        assert!(Baseline(None).settle(Duration::ZERO).is_ok());
        if counts().is_some() {
            let roomy = Baseline(Some((usize::MAX, usize::MAX)));
            assert!(roomy.settle(Duration::ZERO).is_ok());
            // No process runs on zero threads with zero open fds.
            let err = Baseline(Some((0, 0))).settle(Duration::from_millis(50));
            assert!(err.unwrap_err().starts_with("leak: threads"));
        }
    }
}
