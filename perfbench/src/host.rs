//! Peak resident memory of this process image.
//!
//! Read from `VmHWM` in `/proc/self/status`, the high-water mark of the
//! current address space. `getrusage`'s `ru_maxrss` would not do: it
//! survives `execve`, so a process started by `cargo run` would report the
//! larger of cargo's footprint and its own.

/// Peak resident set size of this process image so far, MB (10^6 bytes);
/// `None` where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kib(&status).map(|kib| kib as f64 * 1024.0 / 1e6)
}

/// The `VmHWM` field of a `/proc/<pid>/status` text, KiB.
fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_status_field() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(12345));
        assert_eq!(vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(vm_hwm_kib("VmRSS:\t12 kB\n"), None);
    }

    #[test]
    fn peak_rss_covers_a_touched_allocation() {
        let big = vec![1u8; 64 << 20];
        assert_eq!(big.iter().map(|&b| u64::from(b)).sum::<u64>(), 64 << 20);
        // The peak is process-wide, but it must at least cover the 67 MB
        // just touched.
        let after = peak_rss_mb().expect("linux");
        assert!(after >= 60.0, "{after}");
    }
}
