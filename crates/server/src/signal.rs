//! Graceful drain on SIGTERM/SIGINT for every server in the process: one
//! process-global handler, one watcher thread per server that asks.

/// Installs the process's SIGTERM/SIGINT handler (once; later calls share
/// it) and starts a watcher thread named `name` that runs `drain` when a
/// signal arrives — or exits without running it as soon as `done()`
/// holds (its server drained for another reason, or is gone). The handler
/// only flips an atomic, which is async-signal-safe; `drain` runs on the
/// watcher, where it may lock. Unix only; elsewhere this does nothing.
pub fn drain_on_signal(
    name: &str,
    done: impl Fn() -> bool + Send + 'static,
    drain: impl FnOnce() + Send + 'static,
) {
    #[cfg(unix)]
    {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Once;

        static TERMINATED: AtomicBool = AtomicBool::new(false);
        static INSTALL: Once = Once::new();
        extern "C" fn on_term(_sig: i32) {
            TERMINATED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        INSTALL.call_once(|| {
            let handler = on_term as extern "C" fn(i32) as *const () as usize;
            // SAFETY: `on_term` has the `void (*)(int)` signature `signal`
            // expects of a handler, and only stores to an atomic.
            unsafe {
                signal(SIGTERM, handler);
                signal(SIGINT, handler);
            }
        });
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_millis(25));
                if TERMINATED.load(Ordering::SeqCst) {
                    drain();
                    return;
                }
                if done() {
                    return;
                }
            })
            .ok();
    }
    #[cfg(not(unix))]
    let _ = (name, done, drain);
}
