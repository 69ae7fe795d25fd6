// Source-location descriptor passed through the C ABI.
//
// Mirrors libomp's `ident_t`: generated code passes a static descriptor so
// runtime diagnostics can name the construct that misbehaved. The paper's
// generated Zig does the same when calling __kmpc_* entry points.
#pragma once

#include "runtime/common.h"

namespace zomp::rt {

struct SourceIdent {
  const char* file = "<unknown>";
  const char* construct = "<unknown>";  // e.g. "parallel", "for", "critical"
  i32 line = 0;
};

}  // namespace zomp::rt
