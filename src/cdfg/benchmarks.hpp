// Synthetic reconstructions of the paper's benchmark CDFGs (Table 1) plus a
// general random-DFG generator for property tests.
//
// The original MediaBench/DSP CDFGs (chem, dir, honda, mcm, pr, steam, wang)
// are not distributed with the paper. The generators here produce
// deterministic layered multiply-accumulate networks that match Table 1
// exactly in primary inputs, primary outputs, add count and mult count;
// the paper's "edge" counts include CDFG node types it never describes, so
// edge counts match the maximum a pure 2-input-op DFG allows
// (2*ops + POs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/cdfg.hpp"

namespace hlp {

/// Shape parameters for a synthetic dataflow benchmark.
struct BenchmarkProfile {
  std::string name;
  int num_inputs = 0;
  int num_outputs = 0;
  int num_adds = 0;
  int num_mults = 0;
  /// Edge count reported by the paper's Table 1 (informational).
  int paper_edges = 0;
  /// Maximum operation depth of the generated DFG. Chosen per benchmark so
  /// that list scheduling under the Table 2 resource constraints lands near
  /// the paper's cycle counts (0 = unconstrained).
  int target_depth = 0;
  /// Depth pressure in [0,1]: probability that operand selection prefers
  /// deeper eligible values, pushing the DFG's depth toward target_depth.
  double depth_bias = 0.6;
};

/// The seven Table 1 profiles, in paper order (chem, dir, honda, mcm, pr,
/// steam, wang).
const std::vector<BenchmarkProfile>& paper_benchmarks();

/// Look up a paper profile by name; throws hlp::Error if unknown.
const BenchmarkProfile& benchmark_profile(const std::string& name);

/// Generate a benchmark CDFG from a profile. Deterministic in (profile,
/// seed): same arguments, same graph.
Cdfg make_benchmark(const BenchmarkProfile& profile, std::uint64_t seed = 42);

/// Convenience: generate a paper benchmark by name.
Cdfg make_paper_benchmark(const std::string& name, std::uint64_t seed = 42);

/// Random DFG for property tests: `num_ops` operations with a random
/// add/mult split, valid and dead-code free.
Cdfg make_random_dfg(int num_inputs, int num_outputs, int num_ops,
                     std::uint64_t seed);

}  // namespace hlp
