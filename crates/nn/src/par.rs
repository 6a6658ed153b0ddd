//! Worker-thread count resolution for the data-parallel engine in
//! [`crate::pool`].

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::OnceLock;

/// An invalid thread-count specification (from `TYPILUS_THREADS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadConfigError {
    /// The rejected value, as written.
    pub value: String,
}

impl std::fmt::Display for ThreadConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid TYPILUS_THREADS value {:?}: expected a positive integer",
            self.value
        )
    }
}

impl std::error::Error for ThreadConfigError {}

/// Parses a thread-count specification: a positive integer, with
/// surrounding whitespace allowed. `"0"`, `"-2"`, `"abc"` and `"4x"`
/// are all errors — a typo must not silently oversubscribe the box.
pub fn parse_thread_spec(spec: &str) -> Result<usize, ThreadConfigError> {
    match spec.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(ThreadConfigError {
            value: spec.trim().to_string(),
        }),
    }
}

/// `TYPILUS_THREADS`, read and parsed once per process. `Ok(None)`
/// means the variable is unset.
fn env_threads() -> &'static Result<Option<usize>, ThreadConfigError> {
    static CACHE: OnceLock<Result<Option<usize>, ThreadConfigError>> = OnceLock::new();
    CACHE.get_or_init(|| match std::env::var("TYPILUS_THREADS") {
        Ok(v) => parse_thread_spec(&v).map(Some),
        Err(_) => Ok(None),
    })
}

/// Resolves the worker-thread count for data-parallel stages, rejecting
/// a malformed `TYPILUS_THREADS`.
///
/// Priority: an explicit non-zero `requested` value, then the
/// `TYPILUS_THREADS` environment variable (read once per process), then
/// [`std::thread::available_parallelism`], defaulting to 1.
pub fn try_resolve_threads(requested: Option<usize>) -> Result<usize, ThreadConfigError> {
    if let Some(n) = requested {
        if n > 0 {
            return Ok(n);
        }
    }
    match env_threads() {
        Ok(Some(n)) => Ok(*n),
        Ok(None) => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
        Err(e) => Err(e.clone()),
    }
}

/// Infallible [`try_resolve_threads`]: a malformed `TYPILUS_THREADS`
/// logs one loud warning and clamps to 1 thread (never to all cores —
/// a typo must fail toward less parallelism, not more).
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match try_resolve_threads(requested) {
        Ok(n) => n,
        Err(e) => {
            static WARNED: AtomicBool = AtomicBool::new(false);
            if !WARNED.swap(true, SeqCst) {
                eprintln!("typilus: warning: {e}; running with 1 thread");
            }
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_thread_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
        assert_eq!(try_resolve_threads(Some(5)), Ok(5));
    }

    #[test]
    fn thread_spec_parsing() {
        assert_eq!(parse_thread_spec("4"), Ok(4));
        assert_eq!(parse_thread_spec(" 16 "), Ok(16));
        for bad in ["abc", "0", "-2", "4x", "", "1.5"] {
            let err = parse_thread_spec(bad).expect_err(bad);
            assert_eq!(err.value, bad.trim());
            assert!(err.to_string().contains("TYPILUS_THREADS"));
        }
    }
}
