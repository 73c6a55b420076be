//! Process memory probes for the out-of-core benchmarks: the whole point
//! of the shard store is a bounded resident set, so the bench and the CI
//! smoke test read the kernel's own accounting instead of trusting
//! allocator statistics.

/// Read one `kB` field from `/proc/self/status`, returned in bytes.
#[cfg(target_os = "linux")]
fn proc_status_kb(field: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: usize = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches(" kB")
                .trim()
                .parse()
                .ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Peak resident set size (`VmHWM`) of the current process in bytes.
/// `None` off Linux or if `/proc` is unreadable.
pub fn peak_rss_bytes() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        proc_status_kb("VmHWM")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Peak virtual address-space size (`VmPeak`) in bytes — what
/// `ulimit -v` actually caps, so the CI smoke test calibrates its limit
/// against this, not RSS. `None` off Linux.
pub fn peak_vm_bytes() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        proc_status_kb("VmPeak")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Render a byte count as a short human-readable figure (`12.3 MiB`).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_probes_read_sane_values() {
        let peak = peak_rss_bytes().expect("VmHWM readable on Linux");
        let vm = peak_vm_bytes().expect("VmPeak readable on Linux");
        // A running test binary occupies at least a few hundred KiB, and
        // what was resident was mapped.
        assert!(peak > 100 * 1024, "peak RSS {peak}");
        assert!(vm >= peak, "peak VM {vm} < peak RSS {peak}");
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KiB");
        assert_eq!(format_bytes(3 << 20), "3.0 MiB");
        assert_eq!(format_bytes(5 << 30), "5.0 GiB");
    }
}
