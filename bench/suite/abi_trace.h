// Span tracing of the zomp ABI as the transpiled kernels call it. zbench_traced
// links with -Wl,--wrap on those entry points (CMakeLists.txt); abi_trace.cpp
// defines the wrappers, which time each call into a runtime layer and forward
// to the real entry point.
#pragma once

#include <string>

namespace zbench::trace {

/// Opens the span of timed solve `solve` on the calling (master) thread and
/// starts recording. Calls outside begin/end pass straight through.
void solve_begin(int solve);
void solve_end();

/// Whether every thread's span buffer has room for two more solves like the
/// ones recorded so far. Call between solves.
bool has_room();

/// Writes the spans of the first solves to `chrome_path` as Chrome trace
/// JSON and returns the per-layer summary of all solves as a JSON object.
/// `threads` is the team size the solves ran at.
std::string finish(const std::string& chrome_path, int threads);

}  // namespace zbench::trace
