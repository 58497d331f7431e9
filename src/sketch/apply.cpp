#include "sketch/apply.hpp"

#include <string>

#include "support/check.hpp"

namespace deck {

const char* to_string(ApplyBackend backend) {
  switch (backend) {
    case ApplyBackend::kScalar:
      return "scalar";
    case ApplyBackend::kSimd:
      return "simd";
  }
  DECK_CHECK_MSG(false, "unknown ApplyBackend value " << static_cast<int>(backend));
  return "?";
}

ApplyBackend parse_apply_backend(std::string_view name) {
  if (name == "scalar") return ApplyBackend::kScalar;
  if (name == "simd") return ApplyBackend::kSimd;
  DECK_CHECK_MSG(false, "unknown apply backend '" << std::string(name) << "' (scalar|simd)");
  return ApplyBackend::kScalar;
}

// simd_apply_kernel() is defined in l0_sampler.cpp so the #ifdef sees the
// compile flags of the TU that actually holds the kernel.

}  // namespace deck
