// Incremental, name-based construction of absorbing chains.
//
// The CLR chain topologies in the paper (Fig. 3) are assembled state-by-state
// per inter-checkpoint interval; juggling raw matrix indices there would be
// error-prone. ChainBuilder lets callers declare named states and
// probability-weighted edges, then validates and freezes the chain.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "oracle/chain.hpp"

namespace clrearly::oracle {

/// Opaque handle to a state registered with a ChainBuilder.
struct StateId {
  std::size_t index = 0;
  bool absorbing = false;
};

class ChainBuilder {
 public:
  /// Register a transient state with a residence time (>= 0). Names must be
  /// unique across transient and absorbing states; throws on duplicates.
  StateId transient(std::string name, double residence_time);

  /// Register an absorbing state.
  StateId absorbing(std::string name);

  /// Add a transition edge with probability p in [0, 1]. Parallel edges to
  /// the same target accumulate. Source must be transient.
  void edge(StateId from, StateId to, double probability);

  /// Validate and construct the chain. Throws std::invalid_argument if any
  /// transient row does not sum to 1 within `row_sum_tol` and
  /// std::domain_error if the chain is not absorbing from every transient
  /// state.
  AbsorbingChain build(double row_sum_tol = 1e-9) const;

 private:
  struct Edge {
    StateId to;
    double probability;
  };

  std::vector<std::string> transient_names_;
  std::vector<double> residence_;
  std::vector<std::vector<Edge>> edges_;  // indexed by transient state
  std::vector<std::string> absorbing_names_;
  std::unordered_map<std::string, StateId> by_name_;
};

}  // namespace clrearly::oracle
