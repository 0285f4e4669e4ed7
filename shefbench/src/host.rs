//! Host context printed with every result: the core count the OS
//! offers, how well two threads actually scale on it, the build
//! profile, and peak resident memory.

use std::time::Instant;

/// What the host looked like during a run.
#[derive(Debug, Clone, Copy)]
pub struct HostContext {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Wall time of one spin loop on one thread, ms.
    pub spin_1t_ms: f64,
    /// Wall time of the same loop on each of two threads at once, ms.
    pub spin_2t_ms: f64,
}

impl HostContext {
    /// Measures the host (about 0.1 s).
    pub fn measure() -> Self {
        const ITERS: u64 = 20_000_000;
        let t = Instant::now();
        spin(ITERS);
        let spin_1t_ms = ms(t);
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(ITERS));
            let b = s.spawn(|| spin(ITERS));
            a.join().expect("spin thread panicked");
            b.join().expect("spin thread panicked");
        });
        let spin_2t_ms = ms(t);
        HostContext {
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            spin_1t_ms,
            spin_2t_ms,
        }
    }

    /// Two-thread over one-thread spin time: 1.0 means two real cores,
    /// 2.0 means the threads share one.
    pub fn spin_ratio(&self) -> f64 {
        self.spin_2t_ms / self.spin_1t_ms
    }
}

/// The cargo profile this binary was built with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..iters {
        x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}
