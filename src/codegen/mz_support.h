// Support header included by every C++ translation unit the code generator
// emits. Provides the MiniZig value types (slices with the optional runtime
// safety checks that motivate the paper's "safer language" thesis), the
// builtin functions, and small helpers.
//
// Safety modes, mirroring Zig's ReleaseSafe / ReleaseFast split:
//   #define ZOMP_MZ_SAFE 1   -> slice indexing is bounds-checked (panic on
//                               out-of-range, like Zig's safety panics)
//   (undefined or 0)         -> unchecked indexing
// The ablate_safety bench compiles the same kernels both ways.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace mz {

[[noreturn]] inline void panic(const char* what, std::int64_t index,
                               std::int64_t len) {
  std::fprintf(stderr, "mz panic: %s (index %lld, len %lld)\n", what,
               static_cast<long long>(index), static_cast<long long>(len));
  std::abort();
}

/// MiniZig slice: pointer + length, the same fat-pointer layout Zig uses.
/// Header copies share the underlying storage (shared-capture semantics).
template <typename T>
struct Slice {
  T* ptr = nullptr;
  std::int64_t len = 0;

  T& operator[](std::int64_t i) const {
#if defined(ZOMP_MZ_SAFE) && ZOMP_MZ_SAFE
    if (i < 0 || i >= len) panic("index out of bounds", i, len);
#endif
    return ptr[i];
  }
};

template <typename T>
Slice<T> alloc(std::int64_t n) {
  if (n < 0) panic("negative allocation length", n, 0);
  return Slice<T>{n == 0 ? nullptr : new T[static_cast<std::size_t>(n)](), n};
}

template <typename T>
void free_slice(Slice<T> s) {
  delete[] s.ptr;
}

// -- Builtins ---------------------------------------------------------------

inline double mz_sqrt(double x) { return std::sqrt(x); }
inline double mz_exp(double x) { return std::exp(x); }
inline double mz_log(double x) { return std::log(x); }
inline double mz_pow(double x, double y) { return std::pow(x, y); }
inline double mz_abs(double x) { return std::fabs(x); }
inline std::int64_t mz_abs(std::int64_t x) { return x < 0 ? -x : x; }
template <typename T>
T mz_min(T a, T b) { return b < a ? b : a; }
template <typename T>
T mz_max(T a, T b) { return a < b ? b : a; }

/// Zig's @mod: result has the sign of the divisor (mathematical modulus for
/// positive divisors), unlike C's %.
inline std::int64_t mz_mod(std::int64_t a, std::int64_t b) {
  const std::int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}

// -- @print -------------------------------------------------------------------

inline void print_one(std::int64_t v) { std::printf("%lld", static_cast<long long>(v)); }
inline void print_one(double v) { std::printf("%.17g", v); }
inline void print_one(bool v) { std::fputs(v ? "true" : "false", stdout); }
inline void print_one(std::string_view s) { std::fwrite(s.data(), 1, s.size(), stdout); }
// Without this overload a string literal would convert to bool, not
// string_view (pointer->bool is a standard conversion and wins).
inline void print_one(const char* s) { std::fputs(s, stdout); }

/// `@print(a, b, ...)`: arguments separated by one space, newline-terminated.
template <typename... Args>
void print(const Args&... args) {
  int n = 0;
  ((n++ ? (std::fputc(' ', stdout), print_one(args)) : print_one(args)), ...);
  std::fputc('\n', stdout);
  (void)n;
}
inline void print() { std::fputc('\n', stdout); }

}  // namespace mz
