//! A fixed reference kernel that measures how fast the host runs at the
//! moment. The host is shared: its neighbours slow every process on it by
//! up to 40% in spells of 10-30 s, through the shared last-level cache and
//! memory rather than through stolen CPU time. The kernel has the same kind
//! of working set as discovery (a sort and a random gather over 48 MB, past
//! the private caches), so its slow-down tracks the program's, and timings
//! are divided by it. It depends on no program code, so a change to the
//! program cannot move it.

use std::time::Instant;

/// The kernel's time on the reference host, a quiet 2-vCPU VM: a host
/// factor of 1.
pub const REFERENCE_S: f64 = 0.2;

fn kernel_s() -> f64 {
    const SORTED: usize = 1 << 22;
    const TABLE_BITS: u32 = 23;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let t = Instant::now();
    let mut v: Vec<u32> = (0..SORTED).map(|_| next() as u32).collect();
    v.sort_unstable();
    let table: Vec<u32> = (0..1u32 << TABLE_BITS).collect();
    let mask = (1u64 << TABLE_BITS) - 1;
    let mut sum = 0u64;
    for _ in 0..SORTED {
        sum += u64::from(table[(next() & mask) as usize]);
    }
    std::hint::black_box((sum, v[SORTED / 2]));
    t.elapsed().as_secs_f64()
}

/// How much slower than the reference host this host runs now: the
/// kernel's time over [`REFERENCE_S`].
pub fn host_factor() -> f64 {
    kernel_s() / REFERENCE_S
}
