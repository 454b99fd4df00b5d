#include "util/validate.h"

#include <cstdlib>
#include <cstring>

namespace cloudlb::detail {

bool initial_validation_state() {
#ifdef CLOUDLB_VALIDATE
  bool enabled = true;
#else
  bool enabled = false;
#endif
  // Environment override so CI tiers can turn validators on without a
  // separate build: CLOUDLB_VALIDATE=1 enables, =0 disables.
  if (const char* env = std::getenv("CLOUDLB_VALIDATE"))
    enabled = std::strcmp(env, "0") != 0;
  return enabled;
}

}  // namespace cloudlb::detail
