#ifndef MDE_TESTS_OBS_TEST_UTIL_H_
#define MDE_TESTS_OBS_TEST_UTIL_H_

#include "obs/context.h"

namespace mde {

/// Switches query attribution on for the enclosing scope and restores the
/// previous setting on exit. Tests that assert attribution output hold one,
/// so they pass whatever `MDE_OBS_ATTR` the process started with.
class ScopedAttribution {
 public:
  ScopedAttribution() : previous_(obs::AttributionEnabled()) {
    obs::SetAttributionEnabled(true);
  }
  ~ScopedAttribution() { obs::SetAttributionEnabled(previous_); }
  ScopedAttribution(const ScopedAttribution&) = delete;
  ScopedAttribution& operator=(const ScopedAttribution&) = delete;

 private:
  const bool previous_;
};

}  // namespace mde

#endif  // MDE_TESTS_OBS_TEST_UTIL_H_
