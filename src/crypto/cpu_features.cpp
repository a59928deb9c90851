#include "crypto/cpu_features.hpp"

#include <cstdlib>

namespace revelio::crypto {

namespace {

bool isa_disabled() {
  const char* env = std::getenv("REVELIO_NO_ISA");
  return env != nullptr && env[0] == '1';
}

}  // namespace

bool cpu_has_sha_ni() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has = __builtin_cpu_supports("sha") &&
                          __builtin_cpu_supports("sse4.1") && !isa_disabled();
  return has;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          !isa_disabled();
  return has;
#else
  return false;
#endif
}

bool cpu_has_aes_ni() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has = __builtin_cpu_supports("aes") &&
                          __builtin_cpu_supports("sse4.1") && !isa_disabled();
  return has;
#else
  return false;
#endif
}

}  // namespace revelio::crypto
