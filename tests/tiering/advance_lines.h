// Counts a TierManager's Advance calls from its actuator log: each Advance
// appends one "q=N policy=..." line (the attach line has no "q=" prefix).
#pragma once

#include <string>

#include "tiering/tier_manager.h"

namespace pmemolap::tiering {

inline int AdvanceLines(const TierManager& manager) {
  int lines = 0;
  for (const std::string& line : manager.actuator_log()) {
    if (line.rfind("q=", 0) == 0 &&
        line.find(" policy=") != std::string::npos) {
      ++lines;
    }
  }
  return lines;
}

}  // namespace pmemolap::tiering
