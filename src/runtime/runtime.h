// Umbrella header for the zomp runtime (substrate S1 in DESIGN.md).
//
// Consumers:
//   * C++ applications / examples          -> runtime/hl.h, runtime/api.h
//   * Code generated by the directive engine -> runtime/abi.h
//   * Tests poking internals                 -> the individual headers
#pragma once

#include "runtime/abi.h"        // IWYU pragma: export
#include "runtime/api.h"        // IWYU pragma: export
#include "runtime/barrier.h"    // IWYU pragma: export
#include "runtime/env.h"        // IWYU pragma: export
#include "runtime/hl.h"         // IWYU pragma: export
#include "runtime/icv.h"        // IWYU pragma: export
#include "runtime/lock.h"       // IWYU pragma: export
#include "runtime/metrics.h"    // IWYU pragma: export
#include "runtime/places.h"     // IWYU pragma: export
#include "runtime/pool.h"       // IWYU pragma: export
#include "runtime/schedule.h"   // IWYU pragma: export
#include "runtime/topology.h"   // IWYU pragma: export
#include "runtime/sync.h"       // IWYU pragma: export
#include "runtime/task.h"       // IWYU pragma: export
#include "runtime/team.h"       // IWYU pragma: export
#include "runtime/trace.h"      // IWYU pragma: export
#include "runtime/worksharing.h"  // IWYU pragma: export
