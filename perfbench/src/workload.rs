//! The op loop shared by every workload, and what it measures.

use std::time::Instant;

use gms_obs::QuantileSketch;

use crate::layers::LayerReport;
use crate::span::Tracer;

/// Ops a run makes at least, so that p90 has ten samples beyond it.
pub const MIN_OPS: usize = 110;

/// Set-up is repeated at least this many times, and for at least
/// `SETUP_MIN_S` seconds; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_S: f64 = 0.25;

/// One benchmark workload.
pub trait Workload {
    /// One line on what the seed chose and what it cannot change.
    fn describe(&self) -> String;

    /// Ops in one round. Every round repeats the same ops on the same
    /// inputs, so a round's simulated results are its seed's results.
    fn round_len(&self) -> usize;

    /// Trace runs the set-up captured.
    fn captured_runs(&self) -> u64;

    /// What the ops mostly wait on, which picks the reference kernel
    /// their host time is scaled by.
    fn bound(&self) -> Bound;

    /// What op `i` of a round does, in a few words.
    fn op_label(&self, i: usize) -> String;

    /// Runs op `i` of a round: the timed layer call plus its checks.
    fn op(&mut self, i: usize, tracer: &mut Tracer) -> OpOutcome;

    /// Traced run only: replays each layer's public API on this
    /// workload's own traffic, after the op loop.
    fn layers(&mut self, tracer: &mut Tracer) -> LayerReport;
}

/// What one op did.
#[derive(Debug, Default)]
pub struct OpOutcome {
    /// Host nanoseconds of the op's layer call, checks excluded.
    pub host_ns: u64,
    /// Simulated references the op executed.
    pub refs: u64,
    /// Simulated runtime of the op's run, in nanoseconds.
    pub sim_ns: u64,
    /// Simulated per-fault waits of the op's run.
    pub waits: QuantileSketch,
    /// Digest of the op's outputs; must repeat in every round.
    pub digest: u64,
    /// Failed checks.
    pub failures: Vec<String>,
}

/// Attempted and failed op counts.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, op: &OpOutcome) {
        self.attempted += 1;
        if !op.failures.is_empty() {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures
                    .extend(op.failures.iter().take(2).cloned());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failures.extend(other.first_failures);
        self.first_failures.truncate(6);
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The result of one op loop.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub op_ns: Vec<u64>,
    pub refs: u64,
    pub rounds: usize,
    pub wall_ns: u64,
    /// Summed simulated runtime of the first round's ops.
    pub sim_ns: u64,
    /// Merged simulated fault waits of the first round's ops.
    pub waits: QuantileSketch,
    pub tally: Tally,
    /// Reference-kernel times, taken between ops every half second.
    pub reference_ns: Vec<u64>,
}

/// Which machine resource a workload's ops mostly wait on, and so which
/// reference kernel tracks the machine's current speed for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Random access over tables larger than the core's caches.
    Memory,
    /// Byte scanning and arithmetic on cache-resident data.
    Compute,
}

impl Bound {
    /// The reference kernel's host time at the reference speed. On a
    /// shared host the machine's speed drifts by a third over minutes; a
    /// workload's host times are multiplied by this over its kernel's
    /// median time in the same run, which cancels most of the drift. The
    /// kernels are the benchmark's own code, so a change to the program
    /// cannot move them.
    pub fn reference_ms(self) -> f64 {
        match self {
            Bound::Memory => 12.0,
            Bound::Compute => 8.0,
        }
    }
}

/// A fixed piece of benchmark-owned work whose host time tracks how fast
/// the machine runs now. The memory kernel makes random read-modify-writes
/// over a 4 MiB table and churns an ordered map; the compute kernel
/// validates a 256 KiB cache-resident text as UTF-8 and mixes integers.
/// The buffers live as long as the kernel, so their pages are faulted in
/// once and `peak_rss_mb` carries them as a constant.
pub struct ReferenceKernel {
    bound: Bound,
    table: Vec<u64>,
    text: String,
}

impl ReferenceKernel {
    pub fn new(bound: Bound) -> Self {
        let mut k = match bound {
            Bound::Memory => ReferenceKernel {
                bound,
                table: vec![0; 1 << 19],
                text: String::new(),
            },
            Bound::Compute => ReferenceKernel {
                bound,
                table: Vec::new(),
                text: "{\"name\":\"fault\",\"ts\":12345,\"args\":{\"page\":7}},".repeat(5_000),
            },
        };
        k.pass();
        k
    }

    fn pass(&mut self) -> u64 {
        let mut rng = SeedRng::new(7);
        match self.bound {
            Bound::Memory => {
                let mut acc = 0u64;
                let mask = self.table.len() - 1;
                for i in 0..400_000u64 {
                    let j = (rng.next_u64() as usize) & mask;
                    self.table[j] = self.table[j].wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
                    acc = acc.wrapping_add(self.table[j]);
                }
                let mut map = std::collections::BTreeMap::new();
                for i in 0..60_000u64 {
                    let k = rng.below(20_000);
                    if i % 3 == 0 {
                        map.remove(&k);
                    } else {
                        *map.entry(k).or_insert(0u64) += i;
                    }
                }
                acc ^ map.values().sum::<u64>()
            }
            Bound::Compute => {
                let bytes = std::hint::black_box(self.text.as_bytes());
                let mut acc = 0u64;
                for _ in 0..120 {
                    acc += std::str::from_utf8(bytes).map_or(0, str::len) as u64;
                }
                for _ in 0..3_000_000 {
                    acc = acc.wrapping_add(rng.next_u64());
                }
                acc
            }
        }
    }

    /// Host nanoseconds of one pass.
    pub fn time(&mut self) -> u64 {
        let t = Instant::now();
        std::hint::black_box(self.pass());
        t.elapsed().as_nanos() as u64
    }
}

/// How often the reference kernel is timed, between ops.
const KERNEL_EVERY_S: f64 = 0.5;

/// Runs whole rounds until `seconds` have passed and at least `min_ops`
/// ops were made. An op whose output differs from its first-round
/// output counts as failed.
pub fn run_loop(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    seconds: f64,
    min_ops: usize,
) -> LoopResult {
    let n = w.round_len();
    let mut out = LoopResult::default();
    let mut first: Vec<u64> = Vec::with_capacity(n);
    let t0 = Instant::now();
    let mut kernel = ReferenceKernel::new(w.bound());
    let mut last_ref: Option<Instant> = None;
    loop {
        for i in 0..n {
            if last_ref.is_none_or(|t| t.elapsed().as_secs_f64() >= KERNEL_EVERY_S) {
                out.reference_ns.push(kernel.time());
                last_ref = Some(Instant::now());
            }
            tracer.set_op((out.rounds * n + i) as u64);
            let mut op = w.op(i, tracer);
            if out.rounds == 0 {
                first.push(op.digest);
                out.sim_ns += op.sim_ns;
                out.waits.merge(&op.waits);
            } else if op.digest != first[i] {
                op.failures.push(format!(
                    "op {i}: round {} output differs from round 0",
                    out.rounds
                ));
            }
            out.op_ns.push(op.host_ns);
            out.refs += op.refs;
            out.tally.add(&op);
        }
        out.rounds += 1;
        if t0.elapsed().as_secs_f64() >= seconds && out.op_ns.len() >= min_ops {
            break;
        }
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    out
}

/// Linear-interpolation quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above the `q` quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator for its inputs.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert!((quantile(&v, 0.9) - 10.0).abs() < 1e-12);
        assert_eq!(beyond(&v, 0.9), 1);
    }
}
