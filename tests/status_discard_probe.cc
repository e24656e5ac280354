// Compile-only probe for the ctest status_discard_fails_build (see
// tests/CMakeLists.txt). Built with LTC_PROBE_DROP_STATUS it drops a Status
// and must not compile; built without, it discards one through
// LTC_IGNORE_STATUS and must.

#include "common/status.h"

namespace ltc {

Status Flush();

void Close() {
#ifdef LTC_PROBE_DROP_STATUS
  Flush();
#else
  LTC_IGNORE_STATUS(Flush());  // the sanctioned discard the probe contrasts
#endif
}

}  // namespace ltc
