//! The paper's serverless benchmark suite, implemented for real.
//!
//! Table 3 lists thirteen benchmarks (four Java, nine Python) drawn from
//! ServerlessBench, FaaSDom, SeBS, and the authors' HotOS'21 study; Table 1
//! adds a JSON workload. Every one of them is implemented here as an actual
//! algorithm (graph traversals, a template engine, SHA-256, a JSON parser,
//! an LZ77 compressor, image pipelines, ...) running on randomized inputs.
//! Kernels return work counters that the JIT runtime simulator prices by
//! compilation tier, so:
//!
//! - request latency scales with the random input size ("the execution
//!   latency directly scales with the size of the random graph", §5.1);
//! - the Gaussian input noise of §5.1 produces the order-of-magnitude
//!   latency IQRs visible in Figures 4–5;
//! - IO-bound benchmarks get most of their latency from un-JIT-able IO,
//!   reproducing §5.2's compute/IO split (and the Uploader regression).
//!
//! # Examples
//!
//! ```
//! use pronghorn_workloads::{by_name, InputVariance, Workload};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let bfs = by_name("BFS").unwrap();
//! let mut rng = SmallRng::seed_from_u64(7);
//! let request = bfs.generate(&mut rng, InputVariance::paper());
//! assert!(request.interpreted_compute_us() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benches;
pub mod input;
pub mod kernels;
pub mod spec;
mod tape;

pub use input::InputVariance;
pub use spec::{input_stream, MethodSpec, SpecWorkload, Workload, WorkloadSpec};

/// All nine Python (PyPy) benchmarks, Figure 4 row order.
pub fn python_benchmarks() -> Vec<SpecWorkload> {
    benches::python::all()
}

/// All five Java (JVM) benchmarks.
pub fn java_benchmarks() -> Vec<SpecWorkload> {
    benches::java::all()
}

/// The thirteen benchmarks of the end-to-end evaluation (Figures 4 and 5).
pub fn evaluation_benchmarks() -> Vec<SpecWorkload> {
    let mut all = python_benchmarks();
    all.extend(benches::java::figure5());
    all
}

/// The four Java benchmarks of Figure 5, row order.
pub fn figure5_benchmarks() -> Vec<SpecWorkload> {
    benches::java::figure5()
}

/// The four Table 1 benchmarks, column order (Hash, HTML, WordCount, JSON).
pub fn table1_benchmarks() -> Vec<SpecWorkload> {
    benches::java::table1()
}

/// Every benchmark: the Python ones, then the Java ones.
pub fn all_benchmarks() -> Vec<SpecWorkload> {
    let mut all = python_benchmarks();
    all.extend(java_benchmarks());
    all
}

/// Looks up any benchmark by its paper name (case-sensitive).
pub fn by_name(name: &str) -> Option<SpecWorkload> {
    all_benchmarks().into_iter().find(|b| b.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_suite_has_thirteen_benchmarks() {
        let benches = evaluation_benchmarks();
        assert_eq!(benches.len(), 13);
        let names: Vec<&str> = benches.iter().map(|b| b.name()).collect();
        for expected in [
            "BFS",
            "DFS",
            "MST",
            "DynamicHTML",
            "PageRank",
            "Uploader",
            "Thumbnailer",
            "Video",
            "Compression",
            "HTMLRendering",
            "MatrixMult",
            "Hash",
            "WordCount",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn lookup_by_name_works() {
        assert!(by_name("PageRank").is_some());
        assert!(by_name("JSON").is_some());
        assert!(by_name("NoSuchBench").is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all_benchmarks()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
