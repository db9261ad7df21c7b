//! Offline stand-in for `criterion`: the macro and builder API surface this
//! workspace's benches use, backed by a plain wall-clock harness.
//!
//! Each benchmark runs a short warmup followed by `sample_size` timed
//! iterations and prints mean time per iteration (plus throughput when one
//! was declared). No statistics, plotting, or baseline storage — just
//! enough to keep `cargo bench` meaningful in a hermetic environment.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level harness handle passed to benchmark functions.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    /// Set how many timed iterations each benchmark runs.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into(), self.sample_size, None, |b| f(b));
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            throughput: None,
            _criterion: self,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Declare the amount of work per iteration, enabling rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Override the timed iteration count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run a benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&label, self.sample_size, self.throughput, |b| f(b));
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&label, self.sample_size, self.throughput, |b| f(b, input));
        self
    }

    /// Close the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Work-per-iteration declaration for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Iteration processes this many logical elements.
    Elements(u64),
    /// Iteration processes this many bytes.
    Bytes(u64),
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

/// Conversion into a display label; mirrors criterion's `IntoBenchmarkId`.
pub trait IntoBenchmarkId {
    /// Produce the display label.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Timing handle handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` over the configured number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed warmup iteration.
        black_box(routine());
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Time `routine` over the configured number of iterations, each on a
    /// fresh input built by `setup`. Only `routine` is timed: building the
    /// input and dropping the output run outside the clock, so a bench
    /// whose input is expensive (a warmed model, say) reports the cost of
    /// the measured work alone. The batch size hint is accepted for API
    /// compatibility; every input is built just before its own iteration.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // One untimed warmup iteration.
        black_box(routine(setup()));
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            elapsed += start.elapsed();
            drop(black_box(output));
        }
        self.elapsed = elapsed;
    }
}

/// How many inputs [`Bencher::iter_batched`] may build at once; mirrors
/// criterion's enum (the shim builds one input per iteration regardless).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Cheap inputs.
    SmallInput,
    /// Inputs too large to build many of at once.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

fn run_one(
    label: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    f: impl FnOnce(&mut Bencher),
) {
    let mut b = Bencher {
        iters: sample_size as u64,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.as_secs_f64() / b.iters as f64;
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!(", {:.3e} elem/s", n as f64 / per_iter),
        Throughput::Bytes(n) => format!(", {:.3e} B/s", n as f64 / per_iter),
    });
    println!(
        "bench {label}: {:.3} ms/iter over {} iters{}",
        per_iter * 1e3,
        b.iters,
        rate.unwrap_or_default()
    );
}

/// Define a benchmark group function, plain or `name/config/targets` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        c.bench_function("trivial", |b| b.iter(|| black_box(1 + 1)));
        let mut g = c.benchmark_group("grouped");
        g.throughput(Throughput::Elements(4));
        g.sample_size(5);
        g.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.bench_function("plain", |b| b.iter(|| black_box(2 * 2)));
        g.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64; 8],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }

    criterion_group!(benches, trivial);

    #[test]
    fn harness_runs() {
        benches();
    }

    #[test]
    fn iter_batched_keeps_setup_off_the_clock() {
        let mut b = Bencher {
            iters: 3,
            elapsed: Duration::ZERO,
        };
        let (mut setups, mut runs) = (0, 0);
        b.iter_batched(
            || {
                setups += 1;
                std::thread::sleep(Duration::from_millis(30));
            },
            |()| runs += 1,
            BatchSize::LargeInput,
        );
        assert_eq!((setups, runs), (4, 4), "warmup plus three timed runs");
        assert!(b.elapsed < Duration::from_millis(30), "{:?}", b.elapsed);
    }
}
