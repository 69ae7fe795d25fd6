// The suite's six workloads. Each one owns fixed-size inputs made from the
// run's seed, a transpiled MiniZig solve ("zig") and a hand-written C++
// reference solve ("ref") of the same problem on the same runtime, and the
// expected results that every solve is checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace zbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs for solves on up to `threads` threads; counted in
  /// set-up time.
  virtual void make_inputs(std::uint64_t seed, int threads) = 0;
  /// Computes the expected results; not counted in set-up time.
  virtual void make_oracle() = 0;

  /// Restores what a solve overwrites. Untimed; runs before every solve.
  virtual void prepare_zig() {}
  virtual void prepare_ref() {}

  /// One solve of the transpiled kernel on the team size the ICV selects.
  virtual void solve_zig() = 0;
  /// One solve of the reference kernel on `threads` threads.
  virtual void solve_ref(int threads) = 0;

  /// Whether the solve that just ran, of the named kind, matched the expected
  /// results (a later solve of either kind may overwrite its outputs).
  virtual bool zig_ok() const = 0;
  virtual bool ref_ok() const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace zbench
